// Tests for the block one-sided Jacobi variant.
#include "svd/block_hestenes.hpp"

#include <gtest/gtest.h>

#include "baselines/golub_kahan.hpp"
#include "common/rng.hpp"
#include "linalg/generate.hpp"

namespace hjsvd {
namespace {

BlockHestenesConfig tolerant(std::size_t block) {
  BlockHestenesConfig cfg;
  cfg.block_size = block;
  cfg.max_sweeps = 20;
  cfg.tolerance = 1e-14;
  return cfg;
}

class BlockSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlockSizes, MatchesGolubKahan) {
  Rng rng(101);
  const Matrix a = random_gaussian(48, 36, rng);
  const SvdResult ours = block_hestenes_svd(a, tolerant(GetParam()));
  const SvdResult ref = golub_kahan_svd(a);
  EXPECT_LT(singular_value_error(ours.singular_values, ref.singular_values),
            1e-9);
}

INSTANTIATE_TEST_SUITE_P(Blocks, BlockSizes,
                         ::testing::Values<std::size_t>(4, 8, 16, 36, 64),
                         [](const auto& param_info) {
                           return std::string("b").append(
                               std::to_string(param_info.param));
                         });

TEST(BlockHestenes, SingleBlockEqualsWholeProblem) {
  // With block_size >= n, one self-visit covers all pairs (plain Jacobi).
  Rng rng(102);
  const Matrix a = random_gaussian(20, 12, rng);
  const SvdResult big = block_hestenes_svd(a, tolerant(64));
  const SvdResult ref = golub_kahan_svd(a);
  EXPECT_LT(singular_value_error(big.singular_values, ref.singular_values),
            1e-10);
}

TEST(BlockHestenes, VectorsReconstruct) {
  Rng rng(103);
  const Matrix a = random_gaussian(30, 24, rng);
  BlockHestenesConfig cfg = tolerant(8);
  cfg.compute_u = true;
  cfg.compute_v = true;
  const SvdResult r = block_hestenes_svd(a, cfg);
  EXPECT_LT(orthogonality_error(r.u), 1e-9);
  EXPECT_LT(orthogonality_error(r.v), 1e-9);
  EXPECT_LT(reconstruction_error(a, r), 1e-10);
}

TEST(BlockHestenes, RankDeficientUIsOrthonormal) {
  // Regression: the engine's own column extraction skipped the
  // re-orthonormalization, so U came back with zero columns for the
  // numerically-zero singular values (orthogonality error 1).
  Rng rng(104);
  const Matrix a = random_rank_deficient(26, 20, 9, rng);
  BlockHestenesConfig cfg = tolerant(8);
  cfg.compute_u = true;
  cfg.compute_v = true;
  const SvdResult r = block_hestenes_svd(a, cfg);
  ASSERT_EQ(r.u.cols(), 20u);
  EXPECT_LT(orthogonality_error(r.u), 1e-10);
  EXPECT_LT(orthogonality_error(r.v), 1e-10);
  EXPECT_LT(reconstruction_error(a, r), 1e-10);
}

TEST(BlockHestenes, ConvergenceTracked) {
  Rng rng(104);
  const Matrix a = random_gaussian(32, 32, rng);
  BlockHestenesConfig cfg;
  cfg.block_size = 8;
  cfg.max_sweeps = 5;
  cfg.track_convergence = true;
  HestenesStats stats;
  (void)block_hestenes_svd(a, cfg, &stats);
  ASSERT_EQ(stats.sweeps.size(), 5u);
  EXPECT_LT(stats.sweeps.back().mean_abs_offdiag,
            stats.sweeps.front().mean_abs_offdiag);
}

TEST(BlockHestenes, EarlyTermination) {
  Rng rng(105);
  const Matrix a = random_gaussian(24, 16, rng);
  BlockHestenesConfig cfg = tolerant(8);
  cfg.max_sweeps = 50;
  const SvdResult r = block_hestenes_svd(a, cfg);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.sweeps, 50u);
}

TEST(BlockHestenes, OddSizesAndRaggedTail) {
  // n not a multiple of the block size leaves a ragged final block.
  Rng rng(106);
  const Matrix a = random_gaussian(19, 13, rng);
  const SvdResult ours = block_hestenes_svd(a, tolerant(5));
  const SvdResult ref = golub_kahan_svd(a);
  EXPECT_LT(singular_value_error(ours.singular_values, ref.singular_values),
            1e-9);
}

TEST(BlockHestenes, RejectsBadConfig) {
  Rng rng(107);
  const Matrix a = random_gaussian(4, 4, rng);
  BlockHestenesConfig cfg;
  cfg.block_size = 0;
  EXPECT_THROW(block_hestenes_svd(a, cfg), Error);
  EXPECT_THROW(block_hestenes_svd(Matrix{}, BlockHestenesConfig{}), Error);
}

}  // namespace
}  // namespace hjsvd
