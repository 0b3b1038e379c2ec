// Tests for the pool-parallel group ("GPU-like") Hestenes baseline.
#include "baselines/parallel_hestenes.hpp"

#include <gtest/gtest.h>

#include "baselines/golub_kahan.hpp"
#include "common/rng.hpp"
#include "linalg/generate.hpp"
#include "svd/plain_hestenes.hpp"

namespace hjsvd {
namespace {

TEST(ParallelHestenes, BitIdenticalToSequentialRoundRobin) {
  // Pairs within a round touch disjoint columns, so the parallel execution
  // must match the sequential plain algorithm bit-for-bit.
  Rng rng(60);
  const Matrix a = random_gaussian(40, 24, rng);
  HestenesConfig cfg;
  cfg.max_sweeps = 6;
  cfg.ordering = Ordering::kRoundRobin;
  const SvdResult par = parallel_hestenes_svd(a, cfg);
  const SvdResult seq = plain_hestenes_svd(a, cfg);
  ASSERT_EQ(par.singular_values.size(), seq.singular_values.size());
  for (std::size_t i = 0; i < par.singular_values.size(); ++i)
    EXPECT_EQ(fp::to_bits(par.singular_values[i]),
              fp::to_bits(seq.singular_values[i]))
        << "index " << i;
}

TEST(ParallelHestenes, MatchesGolubKahan) {
  Rng rng(61);
  const Matrix a = random_gaussian(30, 18, rng);
  HestenesConfig cfg;
  cfg.max_sweeps = 20;
  cfg.tolerance = 1e-14;
  const SvdResult ours = parallel_hestenes_svd(a, cfg);
  const SvdResult ref = golub_kahan_svd(a);
  EXPECT_LT(singular_value_error(ours.singular_values, ref.singular_values),
            1e-10);
}

TEST(ParallelHestenes, VectorsReconstruct) {
  Rng rng(62);
  const Matrix a = random_gaussian(20, 12, rng);
  HestenesConfig cfg;
  cfg.max_sweeps = 20;
  cfg.tolerance = 1e-14;
  cfg.compute_u = true;
  cfg.compute_v = true;
  const SvdResult r = parallel_hestenes_svd(a, cfg);
  EXPECT_LT(orthogonality_error(r.u), 1e-10);
  EXPECT_LT(orthogonality_error(r.v), 1e-10);
  EXPECT_LT(reconstruction_error(a, r), 1e-11);
}

TEST(ParallelHestenes, TracksStats) {
  Rng rng(63);
  const Matrix a = random_gaussian(16, 10, rng);
  HestenesConfig cfg;
  cfg.max_sweeps = 3;
  cfg.track_convergence = true;
  HestenesStats stats;
  (void)parallel_hestenes_svd(a, cfg, &stats);
  EXPECT_EQ(stats.sweeps.size(), 3u);
  EXPECT_EQ(stats.total_rotations + stats.total_skipped, 3u * 45u);
}

TEST(ParallelHestenes, OddColumnCountHandled) {
  Rng rng(64);
  const Matrix a = random_gaussian(15, 9, rng);
  HestenesConfig cfg;
  cfg.max_sweeps = 20;
  cfg.tolerance = 1e-14;
  const SvdResult ours = parallel_hestenes_svd(a, cfg);
  const SvdResult ref = golub_kahan_svd(a);
  EXPECT_LT(singular_value_error(ours.singular_values, ref.singular_values),
            1e-10);
}

}  // namespace
}  // namespace hjsvd
