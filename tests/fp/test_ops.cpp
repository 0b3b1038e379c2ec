// Tests of the arithmetic policy layer (NativeOps / SoftOps / CountingOps).
#include "fp/ops.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace hjsvd::fp {
namespace {

TEST(NativeOps, MatchesOperators) {
  NativeOps ops;
  EXPECT_EQ(ops.add(1.5, 2.25), 3.75);
  EXPECT_EQ(ops.sub(1.5, 2.25), -0.75);
  EXPECT_EQ(ops.mul(1.5, 2.0), 3.0);
  EXPECT_EQ(ops.div(3.0, 2.0), 1.5);
  EXPECT_EQ(ops.sqrt(9.0), 3.0);
}

TEST(SoftOps, AgreesWithNativeOnRandomInputs) {
  NativeOps native;
  SoftOps soft;
  Rng rng(55);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.gaussian() * 10.0;
    const double y = rng.gaussian() * 10.0;
    EXPECT_EQ(soft.add(x, y), native.add(x, y));
    EXPECT_EQ(soft.sub(x, y), native.sub(x, y));
    EXPECT_EQ(soft.mul(x, y), native.mul(x, y));
    if (y != 0.0) {
      EXPECT_EQ(soft.div(x, y), native.div(x, y));
    }
    EXPECT_EQ(soft.sqrt(std::abs(x)), native.sqrt(std::abs(x)));
  }
}

TEST(CountingOps, TalliesEveryOperation) {
  OpCounts counts;
  CountingOps ops(counts);
  (void)ops.add(1.0, 2.0);
  (void)ops.add(1.0, 2.0);
  (void)ops.sub(1.0, 2.0);
  (void)ops.mul(1.0, 2.0);
  (void)ops.mul(1.0, 2.0);
  (void)ops.mul(1.0, 2.0);
  (void)ops.div(1.0, 2.0);
  (void)ops.sqrt(4.0);
  EXPECT_EQ(counts.add, 2u);
  EXPECT_EQ(counts.sub, 1u);
  EXPECT_EQ(counts.mul, 3u);
  EXPECT_EQ(counts.div, 1u);
  EXPECT_EQ(counts.sqrt, 1u);
  EXPECT_EQ(counts.total(), 8u);
}

TEST(CountingOps, CopiesShareTheCounter) {
  OpCounts counts;
  CountingOps a(counts);
  CountingOps b = a;
  (void)a.add(1.0, 1.0);
  (void)b.add(1.0, 1.0);
  EXPECT_EQ(counts.add, 2u);
}

TEST(OpCounts, Accumulates) {
  OpCounts a, b;
  a.mul = 3;
  b.mul = 4;
  b.sqrt = 1;
  a += b;
  EXPECT_EQ(a.mul, 7u);
  EXPECT_EQ(a.sqrt, 1u);
}

TEST(CoreLatencies, PaperDefaults) {
  CoreLatencies lat;
  EXPECT_EQ(lat.of(OpKind::kMul), 9u);
  EXPECT_EQ(lat.of(OpKind::kAdd), 14u);
  EXPECT_EQ(lat.of(OpKind::kSub), 14u);
  EXPECT_EQ(lat.of(OpKind::kDiv), 57u);
  EXPECT_EQ(lat.of(OpKind::kSqrt), 57u);
}

}  // namespace
}  // namespace hjsvd::fp
