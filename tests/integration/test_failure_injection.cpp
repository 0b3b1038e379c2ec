// Failure-injection tests: every public solver entry point must reject
// non-finite input with hjsvd::Error rather than silently producing NaN
// results or looping.
#include <gtest/gtest.h>

#include <limits>

#include "api/svd.hpp"
#include "baselines/golub_kahan.hpp"
#include "baselines/parallel_hestenes.hpp"
#include "baselines/twosided_jacobi.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/generate.hpp"
#include "svd/hestenes.hpp"
#include "svd/plain_hestenes.hpp"

namespace hjsvd {
namespace {

enum class Poison { kNan, kPosInf, kNegInf };

Matrix poisoned(std::size_t m, std::size_t n, Poison poison,
                std::size_t r, std::size_t c) {
  Rng rng(7);
  Matrix a = random_gaussian(m, n, rng);
  switch (poison) {
    case Poison::kNan:
      a(r, c) = std::numeric_limits<double>::quiet_NaN();
      break;
    case Poison::kPosInf:
      a(r, c) = std::numeric_limits<double>::infinity();
      break;
    case Poison::kNegInf:
      a(r, c) = -std::numeric_limits<double>::infinity();
      break;
  }
  return a;
}

class FailureInjection : public ::testing::TestWithParam<Poison> {
 protected:
  Matrix square() const { return poisoned(8, 8, GetParam(), 3, 5); }
  Matrix rect() const { return poisoned(10, 6, GetParam(), 9, 0); }
};

TEST_P(FailureInjection, ModifiedHestenesRejects) {
  EXPECT_THROW(modified_hestenes_svd(rect()), Error);
}

TEST_P(FailureInjection, PlainHestenesRejects) {
  EXPECT_THROW(plain_hestenes_svd(rect()), Error);
}

TEST_P(FailureInjection, ParallelHestenesRejects) {
  EXPECT_THROW(parallel_hestenes_svd(rect()), Error);
}

TEST_P(FailureInjection, GolubKahanRejects) {
  EXPECT_THROW(golub_kahan_svd(rect()), Error);
}

TEST_P(FailureInjection, TwoSidedRejects) {
  EXPECT_THROW(twosided_jacobi_svd(square()), Error);
}

TEST_P(FailureInjection, UnifiedApiRejects) {
  EXPECT_THROW(svd(rect()), Error);
  EXPECT_THROW(svd(square(), {.method = SvdMethod::kGolubKahan}), Error);
}

INSTANTIATE_TEST_SUITE_P(Poisons, FailureInjection,
                         ::testing::Values(Poison::kNan, Poison::kPosInf,
                                           Poison::kNegInf),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case Poison::kNan: return "NaN";
                             case Poison::kPosInf: return "PosInf";
                             default: return "NegInf";
                           }
                         });

TEST(FailureInjection, FiniteInputStillAccepted) {
  Rng rng(8);
  const Matrix a = random_gaussian(6, 4, rng);
  EXPECT_NO_THROW(modified_hestenes_svd(a));
  EXPECT_NO_THROW(golub_kahan_svd(a));
}

TEST(FailureInjection, ZeroMatrixIsValidInput) {
  const Matrix zero(5, 3);
  const SvdResult r = modified_hestenes_svd(zero);
  for (double s : r.singular_values) EXPECT_EQ(s, 0.0);
  const SvdResult p = plain_hestenes_svd(zero);
  for (double s : p.singular_values) EXPECT_EQ(s, 0.0);
}

}  // namespace
}  // namespace hjsvd
