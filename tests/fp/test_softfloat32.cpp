// Binary32 soft-float validation for the mixed-precision float phase.
//
// Three layers of evidence, mirroring the binary64 suite:
//   1. A table-driven test locking round-to-nearest-even tie handling at the
//      subnormal boundary to explicit bit patterns.  Each row is also checked
//      against the host FPU (x86-64 SSE is IEEE-754 binary32 with RNE), so
//      the frozen table and the hardware must agree with each other and with
//      the soft implementation.
//   2. Exhaustive differential sweeps over bit-pattern windows around the
//      subnormal boundary, the rounding boundary at 1.0, and mid-subnormal
//      range, for all four binary operations and sqrt.
//   3. Randomized differential fuzz over subnormal-heavy and wide-exponent
//      distributions.
#include "fp/softfloat.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace hjsvd::fp {
namespace {

using u32 = std::uint32_t;

enum class Op { kAdd, kSub, kMul, kDiv };

const char* op_name(Op op) {
  switch (op) {
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kDiv: return "div";
  }
  return "?";
}

u32 soft(Op op, u32 a, u32 b) {
  switch (op) {
    case Op::kAdd: return f32_add(a, b);
    case Op::kSub: return f32_sub(a, b);
    case Op::kMul: return f32_mul(a, b);
    case Op::kDiv: return f32_div(a, b);
  }
  return 0;
}

/// IEEE-754 leaves the sign/payload of *generated* NaNs implementation-
/// defined: x86 SSE makes 0/0 the negative "real indefinite" 0xFFC00000,
/// the soft model (and the Coregen cores) the canonical 0x7FC00000.
/// Differential comparisons therefore treat any-NaN == any-NaN; propagated
/// input NaNs are still compared exactly by the specials tests.
bool bits_equivalent(u32 got, u32 ref) {
  if (got == ref) return true;
  return f32_is_nan(got) && f32_is_nan(ref);
}

u32 hardware(Op op, u32 a, u32 b) {
  const float x = from_bits32(a);
  const float y = from_bits32(b);
  switch (op) {
    case Op::kAdd: return to_bits32(x + y);
    case Op::kSub: return to_bits32(x - y);
    case Op::kMul: return to_bits32(x * y);
    case Op::kDiv: return to_bits32(x / y);
  }
  return 0;
}

// --- 1. Table-driven ties at the subnormal boundary -------------------------

struct TieCase {
  Op op;
  u32 a, b;
  u32 expected;
  const char* what;
};

// 0x3F000000 = 0.5f, 0x40000000 = 2.0f.  Subnormal ulp is 2^-149; a product
// or quotient landing exactly halfway between two representable multiples of
// 2^-149 must round to the even significand.
constexpr TieCase kTieCases[] = {
    // Ties inside the subnormal range (results in units of 2^-149):
    {Op::kMul, 0x00000001, 0x3F000000, 0x00000000,
     "min_subnormal * 0.5 = 0.5 ulp: tie to even -> +0"},
    {Op::kMul, 0x00000003, 0x3F000000, 0x00000002,
     "3 ulp * 0.5 = 1.5 ulp: tie to even -> 2 ulp"},
    {Op::kMul, 0x00000005, 0x3F000000, 0x00000002,
     "5 ulp * 0.5 = 2.5 ulp: tie to even -> 2 ulp"},
    {Op::kMul, 0x00000007, 0x3F000000, 0x00000004,
     "7 ulp * 0.5 = 3.5 ulp: tie to even -> 4 ulp"},
    {Op::kDiv, 0x00000001, 0x40000000, 0x00000000,
     "min_subnormal / 2 = 0.5 ulp: tie to even -> +0"},
    {Op::kDiv, 0x00000003, 0x40000000, 0x00000002,
     "3 ulp / 2 = 1.5 ulp: tie to even -> 2 ulp"},
    // Ties exactly at the normal/subnormal boundary (inputs straddle
    // 0x00800000 = 2^-126, the minimum normal):
    {Op::kMul, 0x00800001, 0x3F000000, 0x00400000,
     "(2^23+1) ulp * 0.5: tie to even -> 2^22 ulp (largest 'half normal')"},
    {Op::kMul, 0x00800003, 0x3F000000, 0x00400002,
     "(2^23+3) ulp * 0.5: tie to even -> 2^22+2 ulp"},
    {Op::kDiv, 0x00800001, 0x40000000, 0x00400000,
     "(2^23+1) ulp / 2: tie to even -> 2^22 ulp"},
    // Exact results crossing the boundary (no rounding may occur):
    {Op::kAdd, 0x00000001, 0x00000001, 0x00000002, "subnormal add is exact"},
    {Op::kAdd, 0x00800000, 0x80000001, 0x007FFFFF,
     "min_normal - min_subnormal = max_subnormal exactly"},
    {Op::kAdd, 0x007FFFFF, 0x00000001, 0x00800000,
     "max_subnormal + min_subnormal = min_normal exactly"},
    // Normal-range ties for contrast (rounding boundary at 1.0):
    {Op::kAdd, 0x3F800000, 0x33800000, 0x3F800000,
     "1.0 + 2^-24: tie to even -> 1.0"},
    {Op::kAdd, 0x3F800001, 0x33800000, 0x3F800002,
     "(1+2^-23) + 2^-24: tie to even -> 1+2^-22"},
};

TEST(Softfloat32Ties, TableDrivenSubnormalBoundary) {
  for (const TieCase& c : kTieCases) {
    const u32 got = soft(c.op, c.a, c.b);
    EXPECT_EQ(got, c.expected) << op_name(c.op) << " " << std::hex << c.a
                               << ", " << c.b << ": " << c.what;
    // The frozen table must itself match the host FPU.
    EXPECT_EQ(hardware(c.op, c.a, c.b), c.expected)
        << "table row disagrees with hardware: " << c.what;
  }
}

// --- 2. Exhaustive windows ---------------------------------------------------

/// Bit patterns (both signs) around every rounding-sensitive boundary.
std::vector<u32> boundary_window() {
  std::vector<u32> w;
  auto push_range = [&w](u32 lo, u32 hi) {
    for (u32 b = lo; b <= hi; ++b) {
      w.push_back(b);
      w.push_back(b | 0x80000000U);
    }
  };
  push_range(0x00000000, 0x0000003F);  // zero + smallest subnormals
  push_range(0x003FFFF0, 0x0040000F);  // half the subnormal range
  push_range(0x007FFFE0, 0x0080001F);  // subnormal/normal boundary
  push_range(0x34000000, 0x34000008);  // 2^-23 (ulp of 1.0)
  push_range(0x33800000, 0x33800004);  // 2^-24 (half-ulp of 1.0)
  push_range(0x3F7FFFFC, 0x3F800007);  // around 1.0
  push_range(0x3EFFFFFE, 0x3F000002);  // around 0.5
  push_range(0x0B000000, 0x0B000002);  // tiny normal: products underflow
  return w;
}

TEST(Softfloat32Exhaustive, BinaryOpsOnBoundaryWindows) {
  const std::vector<u32> w = boundary_window();
  for (const Op op : {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv}) {
    for (const u32 a : w) {
      for (const u32 b : w) {
        const u32 got = soft(op, a, b);
        const u32 ref = hardware(op, a, b);
        ASSERT_TRUE(bits_equivalent(got, ref))
            << op_name(op) << " " << std::hex << a << ", " << b << ": got "
            << got << " want " << ref;
      }
    }
  }
}

TEST(Softfloat32Exhaustive, SqrtOnSubnormalsAndBoundary) {
  // Every 7th subnormal plus the full boundary window: sqrt of a subnormal
  // exercises the unpack-normalize path with large leading-zero counts.
  for (u32 a = 0x00000001; a <= 0x007FFFFF; a += 7) {
    const u32 got = f32_sqrt(a);
    const u32 ref = to_bits32(std::sqrt(from_bits32(a)));
    ASSERT_EQ(got, ref) << "sqrt " << std::hex << a;
  }
  for (const u32 a : boundary_window()) {
    if (a & 0x80000000U) continue;  // negative sqrt covered in specials
    const u32 got = f32_sqrt(a);
    const u32 ref = to_bits32(std::sqrt(from_bits32(a)));
    ASSERT_EQ(got, ref) << "sqrt " << std::hex << a;
  }
}

// --- 3. Randomized differential fuzz ----------------------------------------

enum class Dist { kNormalRange, kWideExponent, kSubnormalHeavy };

u32 draw32(Rng& rng, Dist d) {
  const u32 sign = static_cast<u32>(rng.next_u64()) & 0x80000000U;
  switch (d) {
    case Dist::kNormalRange:
      return to_bits32(static_cast<float>(rng.gaussian() * 100.0));
    case Dist::kWideExponent: {
      const u32 exp = static_cast<u32>(rng.bounded(254) + 1);  // normals
      const u32 frac = static_cast<u32>(rng.next_u64()) & 0x007FFFFFU;
      return sign | (exp << 23) | frac;
    }
    case Dist::kSubnormalHeavy: {
      const u32 frac = static_cast<u32>(rng.next_u64()) & 0x007FFFFFU;
      if (rng.bounded(2) == 0) return sign | frac;  // pure subnormal
      const u32 exp = static_cast<u32>(rng.bounded(40) + 1);  // tiny normal
      return sign | (exp << 23) | frac;
    }
  }
  return 0;
}

class Differential32 : public ::testing::TestWithParam<Dist> {};

constexpr int kTrials = 100000;

TEST_P(Differential32, AllOps) {
  Rng rng(3202);
  for (int i = 0; i < kTrials; ++i) {
    const u32 a = draw32(rng, GetParam());
    const u32 b = draw32(rng, GetParam());
    for (const Op op : {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv}) {
      ASSERT_TRUE(bits_equivalent(soft(op, a, b), hardware(op, a, b)))
          << op_name(op) << " " << std::hex << a << ", " << b;
    }
    const u32 mag = a & 0x7FFFFFFFU;
    ASSERT_EQ(f32_sqrt(mag), to_bits32(std::sqrt(from_bits32(mag))))
        << "sqrt " << std::hex << mag;
  }
}

INSTANTIATE_TEST_SUITE_P(Distributions, Differential32,
                         ::testing::Values(Dist::kNormalRange,
                                           Dist::kWideExponent,
                                           Dist::kSubnormalHeavy),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case Dist::kNormalRange: return "NormalRange";
                             case Dist::kWideExponent: return "WideExponent";
                             case Dist::kSubnormalHeavy:
                               return "SubnormalHeavy";
                           }
                           return "?";
                         });

// --- Specials ---------------------------------------------------------------

constexpr u32 kInf32 = 0x7F800000U;
constexpr u32 kNegInf32 = 0xFF800000U;
constexpr u32 kQNan32 = 0x7FC00000U;
constexpr u32 kOne32 = 0x3F800000U;

TEST(Softfloat32Specials, InfAndNan) {
  EXPECT_EQ(f32_add(kInf32, kNegInf32), kQNan32);  // inf - inf
  EXPECT_EQ(f32_add(kInf32, kOne32), kInf32);
  EXPECT_EQ(f32_mul(kInf32, 0x00000000U), kQNan32);  // inf * 0
  EXPECT_EQ(f32_div(kInf32, kInf32), kQNan32);
  EXPECT_EQ(f32_div(kOne32, 0x00000000U), kInf32);
  EXPECT_EQ(f32_div(0x00000000U, 0x00000000U), kQNan32);
  EXPECT_EQ(f32_sqrt(0xBF800000U), kQNan32);  // sqrt(-1)
  EXPECT_EQ(f32_sqrt(kInf32), kInf32);
  // Signaling NaN input comes back quieted, payload preserved.
  const u32 snan = 0x7F800001U;
  EXPECT_EQ(f32_add(snan, kOne32), (snan | 0x00400000U));
  EXPECT_TRUE(f32_is_nan(f32_mul(snan, kOne32)));
}

TEST(Softfloat32Specials, SignedZeros) {
  EXPECT_EQ(f32_add(0x00000000U, 0x80000000U), 0x00000000U);  // +0 + -0 = +0
  EXPECT_EQ(f32_add(0x80000000U, 0x80000000U), 0x80000000U);  // -0 + -0 = -0
  EXPECT_EQ(f32_sub(kOne32, kOne32), 0x00000000U);            // exact: +0
  EXPECT_EQ(f32_sqrt(0x80000000U), 0x80000000U);              // sqrt(-0) = -0
  EXPECT_EQ(f32_mul(0x80000000U, kOne32), 0x80000000U);
}

TEST(Softfloat32Specials, OverflowToInf) {
  const u32 max_finite = 0x7F7FFFFFU;
  EXPECT_EQ(f32_add(max_finite, max_finite), kInf32);
  EXPECT_EQ(f32_mul(max_finite, 0x41000000U), kInf32);  // * 8.0
  EXPECT_EQ(to_bits32(from_bits32(max_finite) + from_bits32(max_finite)),
            kInf32);
}

TEST(Softfloat32Specials, Classification) {
  EXPECT_TRUE(f32_is_nan(kQNan32));
  EXPECT_TRUE(f32_is_inf(kInf32));
  EXPECT_TRUE(f32_is_inf(kNegInf32));
  EXPECT_TRUE(f32_is_zero(0x80000000U));
  EXPECT_TRUE(f32_is_subnormal(0x00000001U));
  EXPECT_TRUE(f32_is_subnormal(0x007FFFFFU));
  EXPECT_FALSE(f32_is_subnormal(0x00800000U));
  EXPECT_FALSE(f32_is_subnormal(0x00000000U));
}

}  // namespace
}  // namespace hjsvd::fp
