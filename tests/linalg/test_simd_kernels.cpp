// Tests for the runtime-dispatched SIMD kernel layer (linalg/simd/).
//
// The load-bearing property is the two-tier contract of simd.hpp:
//  * bit-identical tier: rotate_pair and rotation_hardware_batch produce
//    exactly the scalar reference bits at every dispatch level, for every
//    vector length (including non-multiple-of-lane tails), alignment, and
//    input scale;
//  * relaxed tier: dot_relaxed/squared_norm_relaxed are bitwise identical
//    *across levels* (the portable backend emulates the AVX2 reduction
//    order) and within the recursive-summation error bound of the exact
//    value, but not equal to the strict left-to-right kernels.
// Plus the dispatch plumbing itself, and engine-level end-to-end identity.
#include "linalg/simd/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "api/svd.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fp/ops.hpp"
#include "linalg/generate.hpp"
#include "linalg/kernels.hpp"
#include "svd/rotation.hpp"

namespace hjsvd {
namespace {

/// Vector lengths covering empty input, sub-lane sizes, exact lane
/// multiples, every tail remainder, and larger sweeps.
const std::size_t kSizes[] = {0,  1,  2,  3,  4,   5,   7,  8,
                              15, 16, 17, 31, 33, 64, 257, 1000};

bool avx2_available() {
  return simd::compiled_with_avx2() && simd::cpu_has_avx2();
}

std::vector<simd::Level> available_levels() {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  if (avx2_available()) levels.push_back(simd::Level::kAvx2);
  return levels;
}

/// Forces a dispatch level for one scope, restoring the previous one.
class LevelGuard {
 public:
  explicit LevelGuard(simd::Level level) : prev_(simd::set_level(level)) {}
  ~LevelGuard() { simd::set_level(prev_); }
  LevelGuard(const LevelGuard&) = delete;
  LevelGuard& operator=(const LevelGuard&) = delete;

 private:
  simd::Level prev_;
};

/// Gaussian data graded across ~300 orders of magnitude, so lane math sees
/// wildly mixed exponents (the shapes the prescale fix exists for).
std::vector<double> graded(std::size_t n, Rng& rng) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int e = static_cast<int>(rng.bounded(301)) - 150;
    x[i] = std::ldexp(rng.gaussian(), e);
  }
  return x;
}

void expect_matrix_bits(const Matrix& a, const Matrix& b,
                        const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  const auto da = a.data();
  const auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i)
    ASSERT_EQ(fp::to_bits(da[i]), fp::to_bits(db[i]))
        << what << " entry " << i;
}

void expect_result_bits(const SvdResult& a, const SvdResult& b,
                        const std::string& what) {
  ASSERT_EQ(a.sweeps, b.sweeps) << what;
  ASSERT_EQ(a.converged, b.converged) << what;
  ASSERT_EQ(a.singular_values.size(), b.singular_values.size()) << what;
  for (std::size_t i = 0; i < a.singular_values.size(); ++i)
    ASSERT_EQ(fp::to_bits(a.singular_values[i]),
              fp::to_bits(b.singular_values[i]))
        << what << " sigma[" << i << "]";
  expect_matrix_bits(a.u, b.u, what + " U");
  expect_matrix_bits(a.v, b.v, what + " V");
}

// ---- dispatch plumbing ---------------------------------------------------

TEST(SimdDispatch, LevelNames) {
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx2), "avx2");
}

TEST(SimdDispatch, FallsBackToScalarWhenAvx2Unavailable) {
  if (avx2_available())
    GTEST_SKIP() << "AVX2 is available; fallback path not reachable here "
                    "(covered by the HJSVD_SIMD=OFF CI build)";
  // Without the vector backend the dispatcher must land on the portable
  // one, and forcing AVX2 must fail loudly instead of faulting later.
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  EXPECT_THROW(simd::set_level(simd::Level::kAvx2), Error);
  // ...and the failed set_level must not have changed anything.
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
}

TEST(SimdDispatch, SetLevelSwitchesAndRestores) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
  const simd::Level original = simd::active_level();
  const simd::Level prev = simd::set_level(simd::Level::kScalar);
  EXPECT_EQ(prev, original);
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  EXPECT_EQ(simd::set_level(simd::Level::kAvx2), simd::Level::kScalar);
  EXPECT_EQ(simd::active_level(), simd::Level::kAvx2);
  simd::set_level(original);
}

// ---- bit-identical tier: rotate_pair -------------------------------------

/// The scalar reference: both outputs from the original (x[r], y[r]), no
/// FMA, no reordering.  Every dispatch level must reproduce these bits.
void rotate_pair_reference(std::vector<double>& x, std::vector<double>& y,
                           double c, double s) {
  for (std::size_t r = 0; r < x.size(); ++r) {
    const double xr = x[r];
    const double yr = y[r];
    x[r] = xr * c - yr * s;
    y[r] = xr * s + yr * c;
  }
}

TEST(SimdRotatePair, BitIdenticalAllSizesAndLevels) {
  Rng rng(101);
  for (const std::size_t n : kSizes) {
    std::vector<double> x0(n), y0(n);
    for (auto& v : x0) v = rng.gaussian();
    for (auto& v : y0) v = rng.gaussian();
    const double angle = rng.gaussian();
    const double c = std::cos(angle);
    const double s = std::sin(angle);
    std::vector<double> xr = x0, yr = y0;
    rotate_pair_reference(xr, yr, c, s);
    for (const simd::Level level : available_levels()) {
      LevelGuard guard(level);
      std::vector<double> x = x0, y = y0;
      rotate_pair(x, y, c, s);
      for (std::size_t r = 0; r < n; ++r) {
        ASSERT_EQ(fp::to_bits(x[r]), fp::to_bits(xr[r]))
            << "n=" << n << " level=" << simd::level_name(level) << " r=" << r;
        ASSERT_EQ(fp::to_bits(y[r]), fp::to_bits(yr[r]))
            << "n=" << n << " level=" << simd::level_name(level) << " r=" << r;
      }
    }
  }
}

TEST(SimdRotatePair, BitIdenticalOnUnalignedSubspans) {
  // Column spans handed to the engines are arbitrary slices of the
  // column-major buffer; an offset-1 subspan defeats any 32-byte alignment
  // assumption in the vector loop.
  Rng rng(102);
  for (const std::size_t n : kSizes) {
    std::vector<double> x0(n + 1), y0(n + 1);
    for (auto& v : x0) v = rng.gaussian();
    for (auto& v : y0) v = rng.gaussian();
    const double c = 0.8;
    const double s = 0.6;
    std::vector<double> xtail(x0.begin() + 1, x0.end());
    std::vector<double> ytail(y0.begin() + 1, y0.end());
    rotate_pair_reference(xtail, ytail, c, s);
    for (const simd::Level level : available_levels()) {
      LevelGuard guard(level);
      std::vector<double> x = x0, y = y0;
      rotate_pair(std::span<double>(x).subspan(1),
                  std::span<double>(y).subspan(1), c, s);
      ASSERT_EQ(x[0], x0[0]);  // the element before the span is untouched
      ASSERT_EQ(y[0], y0[0]);
      for (std::size_t r = 0; r < n; ++r) {
        ASSERT_EQ(fp::to_bits(x[r + 1]), fp::to_bits(xtail[r]))
            << "n=" << n << " level=" << simd::level_name(level) << " r=" << r;
        ASSERT_EQ(fp::to_bits(y[r + 1]), fp::to_bits(ytail[r]))
            << "n=" << n << " level=" << simd::level_name(level) << " r=" << r;
      }
    }
  }
}

TEST(SimdRotatePair, BitIdenticalOnGradedInputs) {
  Rng rng(103);
  for (const std::size_t n : {7u, 33u, 257u}) {
    const std::vector<double> x0 = graded(n, rng);
    const std::vector<double> y0 = graded(n, rng);
    const double c = std::sqrt(0.5);
    const double s = std::sqrt(0.5);
    std::vector<double> xr = x0, yr = y0;
    rotate_pair_reference(xr, yr, c, s);
    for (const simd::Level level : available_levels()) {
      LevelGuard guard(level);
      std::vector<double> x = x0, y = y0;
      rotate_pair(x, y, c, s);
      for (std::size_t r = 0; r < n; ++r) {
        ASSERT_EQ(fp::to_bits(x[r]), fp::to_bits(xr[r]))
            << "n=" << n << " level=" << simd::level_name(level) << " r=" << r;
        ASSERT_EQ(fp::to_bits(y[r]), fp::to_bits(yr[r]))
            << "n=" << n << " level=" << simd::level_name(level) << " r=" << r;
      }
    }
  }
}

TEST(SimdRotatePair, MismatchedLengthsThrow) {
  std::vector<double> x(4), y(5);
  EXPECT_THROW(rotate_pair(x, y, 1.0, 0.0), Error);
}

// ---- bit-identical tier: rotation_hardware_batch -------------------------

/// Lane inputs mixing the interesting regimes: in-band random problems,
/// cov == 0 identity lanes, out-of-band huge/tiny scales that force the
/// per-lane prescale redo, and mixed-graded lanes.
struct BatchInputs {
  std::vector<double> njj, nii, cov;
};

BatchInputs make_batch(std::size_t count, Rng& rng) {
  BatchInputs in;
  in.njj.resize(count);
  in.nii.resize(count);
  in.cov.resize(count);
  for (std::size_t l = 0; l < count; ++l) {
    switch (l % 7) {
      case 0:  // cov == 0: identity lane
        in.njj[l] = std::abs(rng.gaussian()) + 0.5;
        in.nii[l] = std::abs(rng.gaussian()) + 0.5;
        in.cov[l] = 0.0;
        break;
      case 1:  // huge scale: squares overflow without prescaling
        in.njj[l] = 3e155;
        in.nii[l] = 1e155;
        in.cov[l] = (l % 2 ? 1.0 : -1.0) * 9e154;
        break;
      case 2:  // tiny scale: squares underflow without prescaling
        in.njj[l] = 3e-160;
        in.nii[l] = 1e-160;
        in.cov[l] = 1e-160;
        break;
      case 3:  // mixed grading across the band edge
        in.njj[l] = 1e155;
        in.nii[l] = 1.0;
        in.cov[l] = 1e-3;
        break;
      default:  // in-band random problems (the hot path)
        in.njj[l] = std::abs(rng.gaussian()) * 10 + 1e-6;
        in.nii[l] = std::abs(rng.gaussian()) * 10 + 1e-6;
        in.cov[l] = rng.gaussian() * 3;
        break;
    }
  }
  return in;
}

TEST(SimdRotationBatch, LaneBitsMatchScalarRotationAllCounts) {
  Rng rng(201);
  for (const std::size_t count : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 64u}) {
    const BatchInputs in = make_batch(count, rng);
    for (const simd::Level level : available_levels()) {
      LevelGuard guard(level);
      std::vector<double> t(count), c(count), s(count);
      std::vector<std::uint8_t> rotate(count);
      rotation_hardware_batch(in.njj, in.nii, in.cov, t, c, s, rotate);
      for (std::size_t l = 0; l < count; ++l) {
        const RotationParams ref =
            rotation_hardware(in.njj[l], in.nii[l], in.cov[l], fp::NativeOps{});
        ASSERT_EQ(fp::to_bits(t[l]), fp::to_bits(ref.t))
            << "count=" << count << " level=" << simd::level_name(level)
            << " lane=" << l << " njj=" << in.njj[l] << " nii=" << in.nii[l]
            << " cov=" << in.cov[l];
        ASSERT_EQ(fp::to_bits(c[l]), fp::to_bits(ref.cos)) << "lane=" << l;
        ASSERT_EQ(fp::to_bits(s[l]), fp::to_bits(ref.sin)) << "lane=" << l;
        ASSERT_EQ(rotate[l] != 0, ref.rotate) << "lane=" << l;
      }
    }
  }
}

TEST(SimdRotationBatch, NonFiniteLaneThrowsLowestFirst) {
  // The wrapper enforces the rotation non-finite contract before any lane
  // runs, reporting the lowest offending lane (mirrors svd_batch's
  // lowest-index error rule) regardless of backend lane order.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> njj = {2.0, 2.0, nan, 2.0, inf};
  std::vector<double> nii(5, 1.0);
  std::vector<double> cov(5, 0.5);
  std::vector<double> t(5), c(5), s(5);
  std::vector<std::uint8_t> rotate(5);
  for (const simd::Level level : available_levels()) {
    LevelGuard guard(level);
    try {
      rotation_hardware_batch(njj, nii, cov, t, c, s, rotate);
      FAIL() << "expected hjsvd::Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("lane 2"), std::string::npos)
          << e.what();
    }
  }
  // A NaN covariance alone must also trip it (the `cov == 0.0` early-out
  // regression), even in a lane that would otherwise be skipped.
  njj[2] = 2.0;
  njj[4] = 2.0;
  cov[3] = nan;
  try {
    rotation_hardware_batch(njj, nii, cov, t, c, s, rotate);
    FAIL() << "expected hjsvd::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("lane 3"), std::string::npos)
        << e.what();
  }
}

TEST(SimdRotationBatch, MismatchedSpansThrow) {
  std::vector<double> a(4), b(4), c4(4), t(4), c(4), s(3);
  std::vector<std::uint8_t> rotate(4);
  EXPECT_THROW(rotation_hardware_batch(a, b, c4, t, c, s, rotate), Error);
}

// ---- relaxed tier --------------------------------------------------------

TEST(SimdDotRelaxed, BitIdenticalAcrossLevels) {
  if (!avx2_available())
    GTEST_SKIP() << "single level only; nothing to cross-check";
  Rng rng(301);
  for (const std::size_t n : kSizes) {
    const std::vector<double> x = graded(n, rng);
    const std::vector<double> y = graded(n, rng);
    double scalar_dot = 0.0, scalar_sq = 0.0;
    {
      LevelGuard guard(simd::Level::kScalar);
      scalar_dot = dot_relaxed(x, y);
      scalar_sq = squared_norm_relaxed(x);
    }
    LevelGuard guard(simd::Level::kAvx2);
    ASSERT_EQ(fp::to_bits(dot_relaxed(x, y)), fp::to_bits(scalar_dot))
        << "n=" << n;
    ASSERT_EQ(fp::to_bits(squared_norm_relaxed(x)), fp::to_bits(scalar_sq))
        << "n=" << n;
  }
}

TEST(SimdDotRelaxed, WithinRecursiveSummationBound) {
  // |relaxed - exact| <= n * eps * sum|x_i y_i| — the standard bound any
  // reassociated summation satisfies.  Exact value via long double.
  Rng rng(302);
  for (const std::size_t n : kSizes) {
    std::vector<double> x(n), y(n);
    for (auto& v : x) v = rng.gaussian();
    for (auto& v : y) v = rng.gaussian();
    long double exact = 0.0L;
    double abs_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      exact += static_cast<long double>(x[i]) * y[i];
      abs_sum += std::abs(x[i] * y[i]);
    }
    const double relaxed = dot_relaxed(x, y);
    const double eps = std::numeric_limits<double>::epsilon();
    const double bound = (static_cast<double>(n) + 1.0) * eps * abs_sum;
    ASSERT_LE(std::abs(relaxed - static_cast<double>(exact)), bound + 1e-300)
        << "n=" << n;
  }
}

TEST(SimdDotRelaxed, EmptyAndStrictEdgeCases) {
  EXPECT_EQ(dot_relaxed(std::vector<double>{}, std::vector<double>{}), 0.0);
  // Sub-lane inputs never reach the split accumulator, so they agree with
  // the strict kernel exactly.
  const std::vector<double> x = {1.5, -2.25, 3.0};
  const std::vector<double> y = {2.0, 4.0, -1.0};
  EXPECT_EQ(dot_relaxed(x, y), dot(x, y));
  std::vector<double> a(4), b(3);
  EXPECT_THROW(dot_relaxed(a, b), Error);
}

TEST(SimdGramRelaxed, MatchesPerEntryDotRelaxed) {
  Rng rng(303);
  const Matrix a = random_gaussian(23, 9, rng);
  const Matrix d = gram_upper_relaxed(a);
  for (std::size_t i = 0; i < a.cols(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (j < i) {
        ASSERT_EQ(d(i, j), 0.0);
        continue;
      }
      ASSERT_EQ(fp::to_bits(d(i, j)),
                fp::to_bits(dot_relaxed(a.col(i), a.col(j))))
          << i << "," << j;
    }
}

// ---- engine-level end-to-end ---------------------------------------------

const SvdMethod kHestenesMethods[] = {
    SvdMethod::kModifiedHestenes,
    SvdMethod::kPlainHestenes,
};

TEST(SimdEngine, ResultsBitIdenticalAcrossLevelsAndThreads) {
  if (!avx2_available())
    GTEST_SKIP() << "single level only; nothing to cross-check";
  Rng rng(401);
  const Matrix a = random_gaussian(40, 24, rng);
  for (const SvdMethod method : kHestenesMethods) {
    SvdOptions opt;
    opt.method = method;
    opt.compute_u = true;
    opt.compute_v = true;
    SvdResult reference;
    {
      LevelGuard guard(simd::Level::kScalar);
      opt.threads = 1;
      reference = svd(a, opt);
    }
    for (const std::size_t threads : {1, 2, 4, 8}) {
      opt.threads = threads;
      LevelGuard guard(simd::Level::kAvx2);
      const SvdResult vec = svd(a, opt);
      expect_result_bits(reference, vec,
                         std::string(svd_method_name(method)) + " avx2 t" +
                             std::to_string(threads));
      simd::set_level(simd::Level::kScalar);
      const SvdResult sca = svd(a, opt);
      expect_result_bits(reference, sca,
                         std::string(svd_method_name(method)) + " scalar t" +
                             std::to_string(threads));
    }
  }
}

TEST(SimdEngineRelaxed, DeterministicAcrossLevelsAndThreads) {
  // The relaxed tier gives up bit-equality with the strict reference but
  // must stay deterministic: same bits at every dispatch level and thread
  // count, for every Hestenes-family engine.
  Rng rng(402);
  const Matrix a = random_gaussian(40, 24, rng);
  for (const SvdMethod method : kHestenesMethods) {
    SvdOptions opt;
    opt.method = method;
    opt.simd_relaxed = true;
    opt.compute_u = true;
    opt.compute_v = true;
    SvdResult reference;
    {
      LevelGuard guard(simd::Level::kScalar);
      opt.threads = 1;
      reference = svd(a, opt);
    }
    for (const simd::Level level : available_levels()) {
      for (const std::size_t threads : {1, 2, 4, 8}) {
        LevelGuard guard(level);
        opt.threads = threads;
        const SvdResult r = svd(a, opt);
        expect_result_bits(reference, r,
                           std::string(svd_method_name(method)) + " relaxed " +
                               simd::level_name(level) + " t" +
                               std::to_string(threads));
      }
    }
  }
}

TEST(SimdEngineRelaxed, AgreesWithStrictToAccuracyBound) {
  Rng rng(403);
  const Matrix a = random_gaussian(48, 32, rng);
  SvdOptions strict;
  strict.compute_u = false;
  strict.compute_v = false;
  SvdOptions relaxed = strict;
  relaxed.simd_relaxed = true;
  const SvdResult rs = svd(a, strict);
  const SvdResult rr = svd(a, relaxed);
  ASSERT_EQ(rs.singular_values.size(), rr.singular_values.size());
  const double sigma_max = rs.singular_values.empty() ? 1.0
                                                      : rs.singular_values[0];
  for (std::size_t i = 0; i < rs.singular_values.size(); ++i)
    ASSERT_NEAR(rs.singular_values[i], rr.singular_values[i],
                1e-10 * sigma_max)
        << "sigma[" << i << "]";
}

}  // namespace
}  // namespace hjsvd
