// Tests for the plain (recomputing) one-sided Hestenes-Jacobi, its
// relationship to the modified (D-caching) algorithm, and its pooled rounds:
// bitwise determinism across pool sizes for every ordering, on square /
// tall / wide / rank-deficient inputs.
#include "svd/plain_hestenes.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "baselines/golub_kahan.hpp"
#include "common/error.hpp"
#include "common/pool.hpp"
#include "common/rng.hpp"
#include "fp/softfloat.hpp"
#include "linalg/generate.hpp"
#include "obs/metrics.hpp"
#include "obs/numerics.hpp"
#include "svd/hestenes.hpp"

namespace hjsvd {
namespace {

HestenesConfig tolerant_config() {
  HestenesConfig cfg;
  cfg.max_sweeps = 30;
  cfg.tolerance = 1e-14;
  return cfg;
}

TEST(PlainHestenes, MatchesGolubKahan) {
  Rng rng(42);
  const Matrix a = random_gaussian(20, 12, rng);
  const SvdResult ours = plain_hestenes_svd(a, tolerant_config());
  const SvdResult ref = golub_kahan_svd(a);
  EXPECT_LT(singular_value_error(ours.singular_values, ref.singular_values),
            1e-10);
}

TEST(PlainHestenes, MatchesModifiedAlgorithm) {
  // Exact arithmetic would make them identical; in floating point they agree
  // to rounding levels after convergence.
  Rng rng(43);
  const Matrix a = random_gaussian(16, 16, rng);
  const SvdResult plain = plain_hestenes_svd(a, tolerant_config());
  const SvdResult modified = modified_hestenes_svd(a, tolerant_config());
  EXPECT_LT(
      singular_value_error(plain.singular_values, modified.singular_values),
      1e-11);
}

TEST(PlainHestenes, ProducesOrthogonalUDirectly) {
  Rng rng(44);
  const Matrix a = random_gaussian(15, 9, rng);
  HestenesConfig cfg = tolerant_config();
  cfg.compute_u = true;
  cfg.compute_v = true;
  const SvdResult r = plain_hestenes_svd(a, cfg);
  EXPECT_LT(orthogonality_error(r.u), 1e-10);
  EXPECT_LT(orthogonality_error(r.v), 1e-10);
  EXPECT_LT(reconstruction_error(a, r), 1e-12);
}

TEST(PlainHestenes, DCachingAblationOpCounts) {
  // The point of Algorithm 1: the modified algorithm does far less work for
  // tall matrices because it never re-reads the m-length columns after the
  // first pass.  Compare total FP op counts on a tall matrix.
  Rng rng(45);
  const Matrix a = random_gaussian(200, 12, rng);
  HestenesConfig cfg;
  cfg.max_sweeps = 6;
  fp::OpCounts plain_counts, modified_counts;
  (void)plain_hestenes_svd_counting(a, cfg, plain_counts);
  (void)modified_hestenes_svd_counting(a, cfg, modified_counts);
  EXPECT_GT(plain_counts.total(), 3 * modified_counts.total())
      << "plain=" << plain_counts.total()
      << " modified=" << modified_counts.total();
}

TEST(PlainHestenes, ModifiedGramOnlyOnceButPlainEverySweep) {
  // Multiplication counts isolate the dot-product recomputation: plain does
  // ~3 m-length dots per pair per sweep; modified pays m-length work only in
  // the initial Gram computation.
  Rng rng(46);
  const Matrix a = random_gaussian(100, 8, rng);
  HestenesConfig one, six;
  one.max_sweeps = 1;
  six.max_sweeps = 6;
  fp::OpCounts p1, p6, m1, m6;
  (void)plain_hestenes_svd_counting(a, one, p1);
  (void)plain_hestenes_svd_counting(a, six, p6);
  (void)modified_hestenes_svd_counting(a, one, m1);
  (void)modified_hestenes_svd_counting(a, six, m6);
  // Plain grows ~linearly with sweeps; modified's per-sweep increment is
  // m-independent (covariance updates only).
  const auto plain_growth = p6.mul - p1.mul;
  const auto modified_growth = m6.mul - m1.mul;
  EXPECT_GT(plain_growth, 4 * modified_growth);
}

TEST(PlainHestenes, StatsTrackConvergence) {
  Rng rng(47);
  const Matrix a = random_gaussian(12, 10, rng);
  HestenesConfig cfg;
  cfg.max_sweeps = 4;
  cfg.track_convergence = true;
  HestenesStats stats;
  (void)plain_hestenes_svd(a, cfg, &stats);
  ASSERT_EQ(stats.sweeps.size(), 4u);
  EXPECT_LT(stats.sweeps.back().mean_abs_offdiag,
            stats.sweeps.front().mean_abs_offdiag);
}

TEST(PlainHestenes, RankDeficientValues) {
  Rng rng(48);
  const Matrix a = random_rank_deficient(12, 8, 3, rng);
  const SvdResult r = plain_hestenes_svd(a, tolerant_config());
  EXPECT_GT(r.singular_values[2], 1e-3);
  EXPECT_NEAR(r.singular_values[3], 0.0, 1e-10);
}

TEST(PlainHestenes, RankDeficientUIsOrthonormal) {
  // Regression: columns of U belonging to numerically-zero singular values
  // used to stay zero vectors on the plain path (only the Gram path
  // completed them from the null space).
  Rng rng(49);
  const Matrix a = random_rank_deficient(12, 8, 3, rng);
  HestenesConfig cfg = tolerant_config();
  cfg.compute_u = true;
  cfg.compute_v = true;
  const SvdResult r = plain_hestenes_svd(a, cfg);
  ASSERT_EQ(r.u.cols(), 8u);
  for (std::size_t c = 0; c < r.u.cols(); ++c) {
    double norm_sq = 0.0;
    for (double x : r.u.col(c)) norm_sq += x * x;
    EXPECT_NEAR(norm_sq, 1.0, 1e-10) << "U column " << c;
  }
  EXPECT_LT(orthogonality_error(r.u), 1e-10);
  EXPECT_LT(reconstruction_error(a, r), 1e-10);
}

TEST(PlainHestenes, RankDeficientUMatchesGramPathQuality) {
  // Both paths now share detail::orthonormalize_columns, so both must give
  // fully orthonormal U on the same rank-deficient input.
  Rng rng(50);
  const Matrix a = random_rank_deficient(15, 10, 4, rng);
  HestenesConfig cfg = tolerant_config();
  cfg.compute_u = true;
  cfg.compute_v = true;
  const SvdResult plain = plain_hestenes_svd(a, cfg);
  const SvdResult gram = modified_hestenes_svd(a, cfg);
  EXPECT_LT(orthogonality_error(plain.u), 1e-10);
  EXPECT_LT(orthogonality_error(gram.u), 1e-10);
  EXPECT_LT(reconstruction_error(a, plain), 1e-10);
}

// ---------------------------------------------------------------------------
// Pooled rounds ("parallel sweep"): the pairs of a round run on a
// WorkStealingPool.  For every ordering and pool size — none (inline), 1, 2
// and 4 workers — sigma, U, V, sweeps, stats, metrics and numerics-probe
// samples must be bitwise those of the inline run.

const Ordering kOrderings[] = {Ordering::kRoundRobin, Ordering::kOddEven,
                               Ordering::kRowCyclic};

const char* ordering_name(Ordering o) {
  switch (o) {
    case Ordering::kRowCyclic: return "row-cyclic";
    case Ordering::kRoundRobin: return "round-robin";
    case Ordering::kOddEven: return "odd-even";
  }
  return "?";
}

/// Calls fn(pool, label) for no pool and for pools of 1, 2 and 4 workers.
template <class Fn>
void for_each_executor(Fn&& fn) {
  fn(nullptr, std::string("inline"));
  for (const std::size_t workers : {1u, 2u, 4u}) {
    WorkStealingPool pool(workers);
    fn(&pool, "pool=" + std::to_string(workers));
  }
}

void expect_bit_identical(const SvdResult& a, const SvdResult& b,
                          const std::string& what) {
  ASSERT_EQ(a.singular_values.size(), b.singular_values.size()) << what;
  for (std::size_t i = 0; i < a.singular_values.size(); ++i)
    EXPECT_EQ(fp::to_bits(a.singular_values[i]),
              fp::to_bits(b.singular_values[i]))
        << what << " singular value " << i;
  EXPECT_EQ(a.sweeps, b.sweeps) << what;
  EXPECT_EQ(a.converged, b.converged) << what;
  ASSERT_EQ(a.u.rows(), b.u.rows()) << what;
  ASSERT_EQ(a.u.cols(), b.u.cols()) << what;
  for (std::size_t i = 0; i < a.u.data().size(); ++i)
    EXPECT_EQ(fp::to_bits(a.u.data()[i]), fp::to_bits(b.u.data()[i]))
        << what << " U entry " << i;
  ASSERT_EQ(a.v.rows(), b.v.rows()) << what;
  ASSERT_EQ(a.v.cols(), b.v.cols()) << what;
  for (std::size_t i = 0; i < a.v.data().size(); ++i)
    EXPECT_EQ(fp::to_bits(a.v.data()[i]), fp::to_bits(b.v.data()[i]))
        << what << " V entry " << i;
}

void expect_same_stats(const HestenesStats& a, const HestenesStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.total_rotations, b.total_rotations) << what;
  EXPECT_EQ(a.total_skipped, b.total_skipped) << what;
  ASSERT_EQ(a.sweeps.size(), b.sweeps.size()) << what;
  for (std::size_t s = 0; s < a.sweeps.size(); ++s) {
    EXPECT_EQ(fp::to_bits(a.sweeps[s].mean_abs_offdiag),
              fp::to_bits(b.sweeps[s].mean_abs_offdiag))
        << what << " sweep " << s;
    EXPECT_EQ(fp::to_bits(a.sweeps[s].max_rel_offdiag),
              fp::to_bits(b.sweeps[s].max_rel_offdiag))
        << what << " sweep " << s;
    EXPECT_EQ(a.sweeps[s].rotations, b.sweeps[s].rotations) << what;
    EXPECT_EQ(a.sweeps[s].skipped, b.sweeps[s].skipped) << what;
  }
}

enum class Shape { kSquare, kTall, kWide, kRankDeficient };

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kSquare: return "Square";
    case Shape::kTall: return "Tall";
    case Shape::kWide: return "Wide";
    case Shape::kRankDeficient: return "RankDeficient";
  }
  return "?";
}

Matrix make(Shape s, Rng& rng) {
  switch (s) {
    case Shape::kSquare: return random_gaussian(24, 24, rng);
    case Shape::kTall: return random_gaussian(48, 17, rng);
    case Shape::kWide: return random_gaussian(14, 33, rng);
    case Shape::kRankDeficient: return random_rank_deficient(26, 20, 9, rng);
  }
  return Matrix(1, 1);
}

class ParallelSweepShapes : public ::testing::TestWithParam<Shape> {
 protected:
  static HestenesConfig config(Ordering ordering) {
    HestenesConfig cfg;
    cfg.max_sweeps = 20;
    cfg.tolerance = 1e-14;
    cfg.ordering = ordering;
    cfg.compute_u = true;
    cfg.compute_v = true;
    return cfg;
  }
};

TEST_P(ParallelSweepShapes, PlainEngineMatchesSequentialBitForBit) {
  Rng rng(9200 + static_cast<int>(GetParam()));
  const Matrix a = make(GetParam(), rng);
  for (const Ordering ordering : kOrderings) {
    const HestenesConfig cfg = config(ordering);
    const SvdResult seq = plain_hestenes_svd(a, cfg);
    // Odd-even rounds do not cover every pair, so 20 of its sweeps may not
    // converge; the comparison holds either way.
    if (ordering != Ordering::kOddEven) {
      EXPECT_TRUE(seq.converged) << ordering_name(ordering);
    }
    for_each_executor([&](WorkStealingPool* pool, const std::string& label) {
      expect_bit_identical(plain_hestenes_svd(a, cfg, nullptr, pool), seq,
                           std::string(shape_name(GetParam())) + " " +
                               ordering_name(ordering) + " " + label);
    });
  }
}

TEST_P(ParallelSweepShapes, StatsIdenticalAcrossThreadCounts) {
  // Stats, the metrics document (sweep series, run summary and the
  // probe's svd.num.* aggregates) and the probe's per-pair samples are
  // folded in pair order after each round, so none depends on the pool.
  Rng rng(9300 + static_cast<int>(GetParam()));
  const Matrix a = make(GetParam(), rng);
  for (const Ordering ordering : kOrderings) {
    HestenesConfig cfg = config(ordering);
    cfg.track_convergence = true;
    std::string ref_metrics;
    HestenesStats ref_stats;
    std::uint64_t ref_samples = 0;
    for_each_executor([&](WorkStealingPool* pool, const std::string& label) {
      const std::string what = std::string(shape_name(GetParam())) + " " +
                               ordering_name(ordering) + " " + label;
      obs::MetricsRegistry metrics;
      obs::NumericsProbe::Config pcfg;
      pcfg.stride = 3;
      obs::NumericsProbe probe(pcfg, &metrics);
      HestenesConfig with = cfg;
      with.obs.metrics = &metrics;
      with.obs.numerics = &probe;
      HestenesStats stats;
      (void)plain_hestenes_svd(a, with, &stats, pool);
      if (pool == nullptr) {
        ref_metrics = metrics.to_json();
        ref_stats = stats;
        ref_samples = probe.samples();
        if (obs::kEnabled) {
          EXPECT_GT(ref_samples, 0u) << what;
        }
        return;
      }
      expect_same_stats(stats, ref_stats, what);
      EXPECT_EQ(probe.samples(), ref_samples) << what;
      EXPECT_EQ(metrics.to_json(), ref_metrics) << what;
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ParallelSweepShapes,
                         ::testing::Values(Shape::kSquare, Shape::kTall,
                                           Shape::kWide,
                                           Shape::kRankDeficient),
                         [](const auto& param_info) {
                           return std::string(shape_name(param_info.param));
                         });

TEST(ParallelSweep, OddColumnCountHandled) {
  // Odd n gives the round-robin rounds a bye and the odd-even rounds an
  // unpaired end column.
  Rng rng(9500);
  const Matrix a = random_gaussian(19, 13, rng);
  for (const Ordering ordering : kOrderings) {
    HestenesConfig cfg;
    cfg.max_sweeps = 20;
    cfg.tolerance = 1e-14;
    cfg.ordering = ordering;
    cfg.compute_u = true;
    cfg.compute_v = true;
    const SvdResult seq = plain_hestenes_svd(a, cfg);
    for_each_executor([&](WorkStealingPool* pool, const std::string& label) {
      expect_bit_identical(plain_hestenes_svd(a, cfg, nullptr, pool), seq,
                           std::string(ordering_name(ordering)) + " " + label);
    });
  }
}

TEST(ParallelSweep, RotationThresholdHonored) {
  Rng rng(9600);
  const Matrix a = random_gaussian(22, 16, rng);
  for (const Ordering ordering : kOrderings) {
    HestenesConfig cfg;
    cfg.max_sweeps = 8;
    cfg.rotation_threshold = 1e-9;
    cfg.ordering = ordering;
    HestenesStats seq_stats;
    const SvdResult seq = plain_hestenes_svd(a, cfg, &seq_stats);
    EXPECT_GT(seq_stats.total_skipped, 0u) << ordering_name(ordering);
    for_each_executor([&](WorkStealingPool* pool, const std::string& label) {
      const std::string what =
          std::string(ordering_name(ordering)) + " " + label;
      HestenesStats stats;
      expect_bit_identical(plain_hestenes_svd(a, cfg, &stats, pool), seq,
                           what);
      expect_same_stats(stats, seq_stats, what);
    });
  }
}

TEST(ParallelSweep, SingleColumnAndTinyInputs) {
  Rng rng(9700);
  const Matrix one_col = random_gaussian(7, 1, rng);
  const Matrix two = random_gaussian(5, 2, rng);
  for (const Ordering ordering : kOrderings) {
    HestenesConfig cfg;
    cfg.ordering = ordering;
    cfg.compute_u = true;
    cfg.compute_v = true;
    const SvdResult r1 = plain_hestenes_svd(one_col, cfg);
    ASSERT_EQ(r1.singular_values.size(), 1u);
    EXPECT_EQ(r1.sweeps, cfg.max_sweeps);
    const SvdResult r2 = plain_hestenes_svd(two, cfg);
    ASSERT_EQ(r2.singular_values.size(), 2u);
    EXPECT_LT(reconstruction_error(two, r2), 1e-12);
    for_each_executor([&](WorkStealingPool* pool, const std::string& label) {
      const std::string what =
          std::string(ordering_name(ordering)) + " " + label;
      expect_bit_identical(plain_hestenes_svd(one_col, cfg, nullptr, pool),
                           r1, what + " 7x1");
      expect_bit_identical(plain_hestenes_svd(two, cfg, nullptr, pool), r2,
                           what + " 5x2");
    });
  }
}

TEST(ParallelSweep, RejectsInvalidInputs) {
  Rng rng(9800);
  const Matrix a = random_gaussian(4, 4, rng);
  Matrix poisoned = a;
  poisoned(2, 1) = std::numeric_limits<double>::quiet_NaN();
  HestenesConfig no_sweeps;
  no_sweeps.max_sweeps = 0;
  for_each_executor([&](WorkStealingPool* pool, const std::string& label) {
    EXPECT_THROW(plain_hestenes_svd(Matrix(), {}, nullptr, pool), Error)
        << label;
    EXPECT_THROW(plain_hestenes_svd(a, no_sweeps, nullptr, pool), Error)
        << label;
    EXPECT_THROW(plain_hestenes_svd(poisoned, {}, nullptr, pool), Error)
        << label;
  });
}

TEST(ParallelSweep, StatefulArithmeticPolicyRejectsAPool) {
  // CountingOps bumps one shared OpCounts from every operation, so its
  // pairs must not run concurrently.
  Rng rng(9801);
  const Matrix a = random_gaussian(6, 4, rng);
  fp::OpCounts counts;
  WorkStealingPool pool(2);
  EXPECT_THROW(plain_hestenes_svd_t(a, HestenesConfig{}, nullptr,
                                    fp::CountingOps{counts}, &pool),
               Error);
  EXPECT_NO_THROW(plain_hestenes_svd_t(a, HestenesConfig{}, nullptr,
                                       fp::CountingOps{counts}));
}

}  // namespace
}  // namespace hjsvd
