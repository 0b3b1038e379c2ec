// Tests for the multi-threaded sweep engine: bitwise determinism across
// pool sizes and exact equivalence with the sequential round-robin
// algorithms, on square / tall / wide / rank-deficient inputs.
#include "svd/parallel_sweep.hpp"

#include <gtest/gtest.h>

#include <string>

#include "baselines/golub_kahan.hpp"
#include "common/error.hpp"
#include "common/pool.hpp"
#include "common/rng.hpp"
#include "fp/softfloat.hpp"
#include "linalg/generate.hpp"
#include "svd/hestenes.hpp"
#include "svd/plain_hestenes.hpp"

namespace hjsvd {
namespace {

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

void expect_bit_identical(const SvdResult& a, const SvdResult& b,
                          const char* what) {
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

class ParallelSweepShapes : public ::testing::TestWithParam<Shape> {
 protected:
  HestenesConfig config() const {
    HestenesConfig cfg;
    cfg.max_sweeps = 20;
    cfg.tolerance = 1e-14;
    cfg.ordering = Ordering::kRoundRobin;
    cfg.compute_u = true;
    cfg.compute_v = true;
    return cfg;
  }
};

TEST_P(ParallelSweepShapes, ModifiedEngineMatchesSequentialBitForBit) {
  Rng rng(9100 + static_cast<int>(GetParam()));
  const Matrix a = make(GetParam(), rng);
  const HestenesConfig cfg = config();
  const SvdResult seq = modified_hestenes_svd(a, cfg);
  for (std::size_t threads : {1u, 2u, 4u}) {
    WorkStealingPool pool(threads);
    const ParallelSweepConfig par{.pool = &pool};
    const SvdResult r = parallel_modified_hestenes_svd(a, cfg, par);
    expect_bit_identical(r, seq,
                         (std::string(shape_name(GetParam())) + " threads=" +
                          std::to_string(threads))
                             .c_str());
  }
}

TEST_P(ParallelSweepShapes, PlainEngineMatchesSequentialBitForBit) {
  Rng rng(9200 + static_cast<int>(GetParam()));
  const Matrix a = make(GetParam(), rng);
  const HestenesConfig cfg = config();
  const SvdResult seq = plain_hestenes_svd(a, cfg);
  for (std::size_t threads : {1u, 2u, 4u}) {
    WorkStealingPool pool(threads);
    const ParallelSweepConfig par{.pool = &pool};
    const SvdResult r = parallel_plain_hestenes_svd(a, cfg, par);
    expect_bit_identical(r, seq,
                         (std::string(shape_name(GetParam())) + " threads=" +
                          std::to_string(threads))
                             .c_str());
  }
}

TEST_P(ParallelSweepShapes, StatsIdenticalAcrossThreadCounts) {
  Rng rng(9300 + static_cast<int>(GetParam()));
  const Matrix a = make(GetParam(), rng);
  HestenesConfig cfg = config();
  cfg.track_convergence = true;
  HestenesStats ref_stats;
  (void)modified_hestenes_svd(a, cfg, &ref_stats);
  for (std::size_t threads : {1u, 2u, 4u}) {
    WorkStealingPool pool(threads);
    const ParallelSweepConfig par{.pool = &pool};
    HestenesStats stats;
    (void)parallel_modified_hestenes_svd(a, cfg, par, &stats);
    EXPECT_EQ(stats.total_rotations, ref_stats.total_rotations);
    EXPECT_EQ(stats.total_skipped, ref_stats.total_skipped);
    ASSERT_EQ(stats.sweeps.size(), ref_stats.sweeps.size());
    for (std::size_t s = 0; s < stats.sweeps.size(); ++s) {
      EXPECT_EQ(fp::to_bits(stats.sweeps[s].mean_abs_offdiag),
                fp::to_bits(ref_stats.sweeps[s].mean_abs_offdiag));
      EXPECT_EQ(stats.sweeps[s].rotations, ref_stats.sweeps[s].rotations);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ParallelSweepShapes,
                         ::testing::Values(Shape::kSquare, Shape::kTall,
                                           Shape::kWide,
                                           Shape::kRankDeficient),
                         [](const auto& param_info) {
                           return std::string(shape_name(param_info.param));
                         });

TEST(ParallelSweep, ModifiedAgreesWithGolubKahan) {
  Rng rng(9400);
  const Matrix a = random_gaussian(30, 21, rng);
  HestenesConfig cfg;
  cfg.max_sweeps = 30;
  cfg.tolerance = 1e-14;
  const SvdResult ours = parallel_modified_hestenes_svd(a, cfg);
  const SvdResult ref = golub_kahan_svd(a);
  EXPECT_LT(singular_value_error(ours.singular_values, ref.singular_values),
            1e-10);
}

TEST(ParallelSweep, OddColumnCountHandled) {
  // Odd n exercises the round-robin bye slot of the block decomposition.
  Rng rng(9500);
  const Matrix a = random_gaussian(19, 13, rng);
  HestenesConfig cfg;
  cfg.max_sweeps = 20;
  cfg.tolerance = 1e-14;
  cfg.compute_u = true;
  cfg.compute_v = true;
  const SvdResult seq = modified_hestenes_svd(a, cfg);
  WorkStealingPool pool(3);
  const ParallelSweepConfig par{.pool = &pool};
  const SvdResult r = parallel_modified_hestenes_svd(a, cfg, par);
  ASSERT_EQ(r.singular_values.size(), seq.singular_values.size());
  for (std::size_t i = 0; i < r.singular_values.size(); ++i)
    EXPECT_EQ(fp::to_bits(r.singular_values[i]),
              fp::to_bits(seq.singular_values[i]));
}

TEST(ParallelSweep, RotationThresholdHonored) {
  Rng rng(9600);
  const Matrix a = random_gaussian(22, 16, rng);
  HestenesConfig cfg;
  cfg.max_sweeps = 8;
  cfg.rotation_threshold = 1e-9;
  HestenesStats seq_stats, par_stats;
  const SvdResult seq = modified_hestenes_svd(a, cfg, &seq_stats);
  WorkStealingPool pool(2);
  const ParallelSweepConfig par{.pool = &pool};
  const SvdResult r = parallel_modified_hestenes_svd(a, cfg, par, &par_stats);
  EXPECT_EQ(par_stats.total_rotations, seq_stats.total_rotations);
  EXPECT_EQ(par_stats.total_skipped, seq_stats.total_skipped);
  for (std::size_t i = 0; i < r.singular_values.size(); ++i)
    EXPECT_EQ(fp::to_bits(r.singular_values[i]),
              fp::to_bits(seq.singular_values[i]));
}

TEST(ParallelSweep, SingleColumnAndTinyInputs) {
  Rng rng(9700);
  const Matrix one_col = random_gaussian(7, 1, rng);
  const SvdResult r1 = parallel_modified_hestenes_svd(one_col);
  ASSERT_EQ(r1.singular_values.size(), 1u);
  const Matrix two = random_gaussian(5, 2, rng);
  HestenesConfig cfg;
  cfg.compute_u = true;
  cfg.compute_v = true;
  const SvdResult r2 = parallel_modified_hestenes_svd(two, cfg);
  const SvdResult seq = modified_hestenes_svd(two, cfg);
  for (std::size_t i = 0; i < r2.singular_values.size(); ++i)
    EXPECT_EQ(fp::to_bits(r2.singular_values[i]),
              fp::to_bits(seq.singular_values[i]));
}

TEST(ParallelSweep, RejectsInvalidInputs) {
  EXPECT_THROW(parallel_modified_hestenes_svd(Matrix()), Error);
  Rng rng(9800);
  const Matrix a = random_gaussian(4, 4, rng);
  HestenesConfig cfg;
  cfg.max_sweeps = 0;
  EXPECT_THROW(parallel_modified_hestenes_svd(a, cfg), Error);
  EXPECT_THROW(parallel_plain_hestenes_svd(a, cfg), Error);
}

}  // namespace
}  // namespace hjsvd
