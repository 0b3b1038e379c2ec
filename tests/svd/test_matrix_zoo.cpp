// Matrix zoo: ill-conditioned, graded and extreme-scale inputs through
// both Hestenes-Jacobi engines (the Gram-rotating modified engine and the
// plain engine), with relative singular-value error bounds.
//
// The accuracy contract is the one for Jacobi applied to the explicitly
// formed Gram matrix D = A^T A (the modified-Gram formulation all these
// engines share): forming D squares the spectrum, so computed singular
// values satisfy |sigma_hat_i - sigma_i| <= c * n * eps * sqrt(kappa) *
// sigma_max.  That is weaker than the high-relative-accuracy bound of
// one-sided Jacobi on A itself, but it is the contract this architecture
// implements, and it holds uniformly over the condition numbers tested
// here (1e2 .. 1e15).  The zoo also locks the
// scale-invariance contract of the threshold-Jacobi skip test: svd(2^k A)
// must converge in exactly the same sweeps as svd(A) — the regression that
// caught detail::below_threshold's squared comparison overflowing to
// inf <= inf (spurious skip of every pair) at 2^300 scale and flushing to
// 0 <= 0 at 2^-260.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "api/svd.hpp"
#include "baselines/golub_kahan.hpp"
#include "common/rng.hpp"
#include "fp/softfloat.hpp"
#include "linalg/generate.hpp"
#include "linalg/residuals.hpp"
#include "obs/live.hpp"
#include "obs/numerics.hpp"
#include "svd/hestenes.hpp"
#include "svd/plain_hestenes.hpp"

namespace hjsvd {

// gtest prints test parameters into the ctest names.  Without a PrintTo it
// dumps raw object bytes — for ZooCase including its name pointer, so the
// names changed with every build.  ADL finds this one in the enum's
// namespace, ZooCase's below in the unnamed namespace.
void PrintTo(SvdMethod method, std::ostream* os) {
  *os << svd_method_token(method);
}

namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

Matrix scaled_copy(const Matrix& a, double s) {
  Matrix b = a;
  for (double& v : b.data()) v *= s;
  return b;
}

/// n singular values decaying geometrically from 1 down to 1/kappa.
std::vector<double> geometric_sv(std::size_t n, double kappa) {
  std::vector<double> sv(n);
  const double ratio =
      n > 1 ? std::pow(kappa, -1.0 / static_cast<double>(n - 1)) : 1.0;
  double v = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    sv[i] = v;
    v *= ratio;
  }
  return sv;
}

struct ZooCase {
  const char* name;
  double kappa;  // target condition number
  double scale;  // power-of-two scaling applied after generation
};

const ZooCase kZoo[] = {
    {"cond1e2", 1e2, 1.0},
    {"cond1e6", 1e6, 1.0},
    {"cond1e10", 1e10, 1.0},
    {"cond1e15", 1e15, 1.0},
    {"cond1e6_up2p300", 1e6, 0x1p+300},
    {"cond1e15_up2p300", 1e15, 0x1p+300},
    {"cond1e6_down2p200", 1e6, 0x1p-200},
    {"cond1e15_down2p200", 1e15, 0x1p-200},
};

void PrintTo(const ZooCase& zoo, std::ostream* os) { *os << zoo.name; }

const SvdMethod kEngines[] = {
    SvdMethod::kModifiedHestenes,
    SvdMethod::kPlainHestenes,
};

class MatrixZoo
    : public ::testing::TestWithParam<std::tuple<ZooCase, SvdMethod>> {};

TEST_P(MatrixZoo, SingularValuesWithinRelativeBound) {
  const auto& [zoo, method] = GetParam();
  const std::size_t m = 48, n = 32;
  Rng rng(140 + static_cast<std::uint64_t>(std::log10(zoo.kappa)));
  const std::vector<double> sv = geometric_sv(n, zoo.kappa);
  const Matrix a = scaled_copy(with_singular_values(m, n, sv, rng), zoo.scale);

  SvdOptions opt;
  opt.method = method;
  opt.tolerance = 1e-14;
  opt.max_sweeps = 40;
  const SvdResult r = svd(a, opt);
  ASSERT_TRUE(r.converged) << zoo.name;
  ASSERT_EQ(r.singular_values.size(), n);

  // |sigma_hat - sigma| <= c n eps sqrt(kappa) sigma_max — the Gram
  // (normal equations) accuracy model.  Measured errors sit 10-50x below
  // this with c = 10 across the whole zoo, so the bound still fails on
  // any first-order accuracy loss while leaving margin for
  // with_singular_values' own generation rounding.
  const double sigma_max = sv[0] * zoo.scale;
  const double bound = 10.0 * static_cast<double>(n) * kEps *
                       std::sqrt(zoo.kappa) * sigma_max;
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(r.singular_values[i], sv[i] * zoo.scale, bound)
        << zoo.name << " sigma[" << i << "]";
}

std::string zoo_param_name(
    const ::testing::TestParamInfo<std::tuple<ZooCase, SvdMethod>>& info) {
  const auto& [zoo, method] = info.param;
  std::string engine;
  switch (method) {
    case SvdMethod::kModifiedHestenes: engine = "sequential"; break;
    case SvdMethod::kPlainHestenes: engine = "plain"; break;
    default: engine = "other"; break;
  }
  return std::string(zoo.name) + "_" + engine;
}

INSTANTIATE_TEST_SUITE_P(Zoo, MatrixZoo,
                         ::testing::Combine(::testing::ValuesIn(kZoo),
                                            ::testing::ValuesIn(kEngines)),
                         zoo_param_name);

TEST(MatrixZoo, HilbertMatchesGolubKahanAcrossEngines) {
  // hilbert(12) has kappa ~ 1.7e16; the Gram formulation caps accuracy at
  // ~eps * sqrt(kappa) ~ 3e-8 relative to sigma_max (observed: ~4e-9,
  // identical across the engines).
  const Matrix h = hilbert(12);
  GolubKahanConfig gk_cfg;
  const SvdResult ref = golub_kahan_svd(h, gk_cfg);
  for (const SvdMethod method : kEngines) {
    SvdOptions opt;
    opt.method = method;
    opt.tolerance = 1e-14;
    opt.max_sweeps = 40;
    const SvdResult r = svd(h, opt);
    EXPECT_LT(singular_value_error(r.singular_values, ref.singular_values),
              1e-7)
        << svd_method_name(method);
  }
}

/// The scale-invariance regression for the threshold-Jacobi skip test.
/// Before the below_threshold fix this failed at both extreme scales: at
/// 2^300 the squared products overflow (inf <= inf skipped every pair, so
/// the engine never rotated and never converged), at 2^-260 they flush to
/// zero (0 <= 0, same failure).  Power-of-two scaling is exact in binary
/// floating point, so sweep counts, rotation counts and (up to exact
/// power-of-two factors) the singular values must all match the unscaled
/// run bit-for-bit.
TEST(MatrixZoo, ThresholdConvergenceIsScaleInvariant) {
  Rng rng(911);
  // Graded spectrum: relative covariances span many magnitudes, which is
  // what gives the rotation threshold real pairs to skip.
  const std::vector<double> sv = geometric_sv(16, 1e8);
  const Matrix a = with_singular_values(24, 16, sv, rng);

  HestenesConfig cfg;
  cfg.max_sweeps = 30;
  cfg.tolerance = 1e-13;
  cfg.rotation_threshold = 1e-12;

  HestenesStats base_stats;
  const SvdResult base = modified_hestenes_svd(a, cfg, &base_stats);
  ASSERT_TRUE(base.converged);
  ASSERT_GT(base_stats.total_skipped, 0u)
      << "threshold never triggered; the zoo case is not exercising the "
         "skip path";

  for (const int k : {300, -260}) {
    SCOPED_TRACE("scale 2^" + std::to_string(k));
    const double s = std::ldexp(1.0, k);
    HestenesStats stats;
    const SvdResult r = modified_hestenes_svd(scaled_copy(a, s), cfg, &stats);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.sweeps, base.sweeps);
    EXPECT_EQ(stats.total_rotations, base_stats.total_rotations);
    EXPECT_EQ(stats.total_skipped, base_stats.total_skipped);
    ASSERT_EQ(r.singular_values.size(), base.singular_values.size());
    for (std::size_t i = 0; i < r.singular_values.size(); ++i)
      EXPECT_DOUBLE_EQ(r.singular_values[i], base.singular_values[i] * s)
          << "sigma[" << i << "]";
  }
}

/// Same contract exercised with the rotation threshold armed through every
/// Hestenes-Jacobi engine (each call site of the skip test must survive the
/// scale that used to overflow the squared compare).
TEST(MatrixZoo, ScaledThresholdRunsConvergeInEveryEngine) {
  Rng rng(912);
  const std::vector<double> sv = geometric_sv(16, 1e8);
  const Matrix a =
      scaled_copy(with_singular_values(24, 16, sv, rng), 0x1p+300);
  HestenesConfig cfg;
  cfg.max_sweeps = 30;
  cfg.tolerance = 1e-13;
  cfg.rotation_threshold = 1e-12;

  EXPECT_TRUE(modified_hestenes_svd(a, cfg).converged) << "sequential";
  EXPECT_TRUE(plain_hestenes_svd(a, cfg).converged) << "plain";
}

// ---------------------------------------------------------------------------
// Numerical-health probe signatures: the zoo's pathologies must light the
// right svd.num.* probes, well-conditioned inputs must stay quiet, and the
// probes must never perturb a single result bit in any engine.

bool bits_equal(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (fp::to_bits(a[i]) != fp::to_bits(b[i])) return false;
  return true;
}

bool results_bit_identical(const SvdResult& a, const SvdResult& b) {
  return bits_equal(a.singular_values, b.singular_values) &&
         bits_equal(a.u.data(), b.u.data()) && bits_equal(a.v.data(), b.v.data());
}

TEST(MatrixZooProbes, WellConditionedGaussianStaysQuiet) {
  if (!obs::kEnabled) GTEST_SKIP() << "probes compiled out (HJSVD_OBS=OFF)";
  Rng rng(2024);
  const Matrix a = random_gaussian(48, 32, rng);
  obs::Watchdog watchdog({});
  obs::NumericsProbe::Config pcfg;
  pcfg.stride = 1;  // sample every pair: quiet must mean *really* quiet
  obs::NumericsProbe probe(pcfg, nullptr, nullptr, &watchdog);
  SvdOptions opt;
  opt.compute_u = true;
  opt.compute_v = true;
  opt.tolerance = 1e-14;
  opt.numerics = &probe;
  opt.watchdog = &watchdog;
  ASSERT_TRUE(svd(a, opt).converged);

  EXPECT_GT(probe.samples(), 0u);
  EXPECT_EQ(probe.nonfinite_events(), 0u);
  EXPECT_EQ(probe.divergence_events(), 0u);
  // A Gaussian's column norms are all within a small factor of each other,
  // but never so close that the rotation denominator cancels.
  EXPECT_LT(probe.cancellation_frac(), 0.05);
  EXPECT_LT(probe.condition_estimate(), 1e3);
  // Finalize-time accuracy: both measures recorded and at rounding level.
  ASSERT_GE(probe.orthogonality_drift(), 0.0);
  EXPECT_LT(probe.orthogonality_drift(), 1e-12);
  ASSERT_GE(probe.backward_error(), 0.0);
  EXPECT_LT(probe.backward_error(), 1e-12);
  EXPECT_FALSE(watchdog.divergence());
  EXPECT_FALSE(watchdog.orthogonality());
}

TEST(MatrixZooProbes, HilbertLightsTheConditionProbes) {
  // hilbert(12) has kappa ~ 1.7e16.  As sweeps converge, the Gram diagonal
  // approaches sigma_i^2, so the running max/min column-norm watermark ends
  // up tracking the true spectral spread.
  if (!obs::kEnabled) GTEST_SKIP() << "probes compiled out (HJSVD_OBS=OFF)";
  const Matrix h = hilbert(12);
  obs::NumericsProbe::Config pcfg;
  pcfg.stride = 1;
  obs::NumericsProbe probe(pcfg);
  SvdOptions opt;
  opt.compute_u = true;
  opt.compute_v = true;
  opt.tolerance = 1e-14;
  opt.max_sweeps = 40;
  opt.numerics = &probe;
  ASSERT_TRUE(svd(h, opt).converged);

  EXPECT_GT(probe.condition_estimate(), 1e8);
  // kappa beyond 1/eps: sigma_min^2 sits under the Gram formulation's
  // rounding floor and computes to exactly zero, so the sigma-based
  // condition ratio is unavailable — the -1 sentinel IS the signature.
  EXPECT_LT(probe.condition_sigma(), 0.0);
  EXPECT_EQ(probe.nonfinite_events(), 0u);
  // Ill conditioning does not hurt the factorization residual: backward
  // error stays near rounding level even though the spectrum spans ~16
  // decades.
  ASSERT_GE(probe.backward_error(), 0.0);
  EXPECT_LT(probe.backward_error(), 1e-8);
}

TEST(MatrixZooProbes, NearParallelColumnsRaiseCancellationAndNearPi4) {
  // Columns that are tiny perturbations of one vector: equal norms (the
  // rotation denominator djj - dii cancels) and strong mutual coupling
  // (2|cov| >> |djj - dii| puts the angle near pi/4) — and the matrix is
  // near rank-1, so the converged Gram diagonal spans many decades.
  if (!obs::kEnabled) GTEST_SKIP() << "probes compiled out (HJSVD_OBS=OFF)";
  Rng rng(31);
  const Matrix base = random_gaussian(16, 1, rng);
  Matrix a(16, 4);
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < 16; ++i)
      a(i, j) = base(i, 0) * (1.0 + 1e-10 * static_cast<double>(j * 16 + i));
  obs::NumericsProbe::Config pcfg;
  pcfg.stride = 1;
  obs::NumericsProbe probe(pcfg);
  SvdOptions opt;
  opt.numerics = &probe;
  opt.max_sweeps = 40;
  ASSERT_TRUE(svd(a, opt).converged);

  EXPECT_GT(probe.cancellation_events(), 0u);
  EXPECT_GT(probe.near_pi4_frac(), 0.0);
  EXPECT_GT(probe.angle_histogram().back(), 0u);
  EXPECT_GT(probe.condition_estimate(), 1e4);
}

TEST(MatrixZooProbes, RankDeficiencyRaisesTheConditionEstimate) {
  if (!obs::kEnabled) GTEST_SKIP() << "probes compiled out (HJSVD_OBS=OFF)";
  Rng rng(32);
  const Matrix a = random_rank_deficient(32, 16, 8, rng);
  obs::NumericsProbe::Config pcfg;
  pcfg.stride = 1;
  obs::NumericsProbe probe(pcfg);
  SvdOptions opt;
  opt.numerics = &probe;
  opt.max_sweeps = 40;
  ASSERT_TRUE(svd(a, opt).converged);
  // Half the spectrum is numerically zero: the sampled column-norm spread
  // must blow past anything a full-rank Gaussian produces.
  EXPECT_GT(probe.condition_estimate(), 1e6);
}

/// The read-only contract, engine by engine: attaching a maximally-sampling
/// probe (stride 1) must not change one bit of U, Sigma, or V at any thread
/// count.
TEST(MatrixZooProbes, ProbesNeverPerturbAnyEngineAtAnyThreadCount) {
  Rng rng(73);
  const Matrix a = random_conditioned(40, 28, 1e10, rng);
  for (const SvdMethod method : kEngines) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SvdOptions opt;
      opt.method = method;
      opt.compute_u = true;
      opt.compute_v = true;
      opt.threads = threads;
      opt.max_sweeps = 40;
      const SvdResult plain = svd(a, opt);

      obs::NumericsProbe::Config pcfg;
      pcfg.stride = 1;
      obs::NumericsProbe probe(pcfg);
      SvdOptions with = opt;
      with.numerics = &probe;
      const SvdResult probed = svd(a, with);

      EXPECT_TRUE(results_bit_identical(plain, probed))
          << svd_method_name(method) << " threads=" << threads;
      // With HJSVD_OBS=OFF the probe never fires — bit-identity above is the
      // whole (compiled-out) contract.  When compiled in, every engine must
      // actually have sampled pairs, the plain engine on a pool included.
      if (obs::kEnabled) {
        EXPECT_GT(probe.samples(), 0u)
            << svd_method_name(method) << " threads=" << threads;
        ASSERT_GE(probe.backward_error(), 0.0) << svd_method_name(method);
      }
    }
  }
}

}  // namespace
}  // namespace hjsvd
