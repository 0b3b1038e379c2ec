// Tests for the transaction-level accelerator simulator: numerical
// equivalence with the library algorithm and timing agreement with the
// analytic model.
#include "arch/accelerator_sim.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "baselines/golub_kahan.hpp"
#include "common/rng.hpp"
#include "linalg/generate.hpp"
#include "svd/hestenes.hpp"

namespace hjsvd::arch {
namespace {

TEST(AcceleratorSim, BitIdenticalToLibraryAlgorithm) {
  Rng rng(90);
  const Matrix a = random_gaussian(24, 16, rng);
  const AcceleratorConfig cfg;
  const auto run = simulate_accelerator(a, cfg);

  HestenesConfig lib;
  lib.max_sweeps = cfg.sweeps;
  lib.ordering = Ordering::kRoundRobin;
  lib.formula = RotationFormula::kHardware;
  lib.gram_chunk_rows = cfg.preproc_layers;
  const SvdResult ref = modified_hestenes_svd(a, lib);

  ASSERT_EQ(run.svd.singular_values.size(), ref.singular_values.size());
  for (std::size_t i = 0; i < ref.singular_values.size(); ++i)
    EXPECT_EQ(fp::to_bits(run.svd.singular_values[i]),
              fp::to_bits(ref.singular_values[i]))
        << "index " << i;
}

TEST(AcceleratorSim, ValuesMatchGolubKahan) {
  Rng rng(91);
  const Matrix a = random_gaussian(48, 32, rng);
  const auto run = simulate_accelerator(a);
  const SvdResult ref = golub_kahan_svd(a);
  EXPECT_LT(
      singular_value_error(run.svd.singular_values, ref.singular_values),
      1e-9);
}

TEST(AcceleratorSim, TimingAgreesWithAnalyticModel) {
  const AcceleratorConfig cfg;
  Rng rng(92);
  for (std::size_t n : {16u, 32u, 64u}) {
    const Matrix a = random_gaussian(n, n, rng);
    const auto run = simulate_accelerator(a, cfg);
    const auto analytic = estimate_timing(cfg, n, n);
    const double ratio = static_cast<double>(run.total_cycles) /
                         static_cast<double>(analytic.total);
    EXPECT_GT(ratio, 0.7) << "n=" << n;
    EXPECT_LT(ratio, 1.4) << "n=" << n;
  }
}

TEST(AcceleratorSim, CycleCountsMonotoneInSize) {
  Rng rng(93);
  const auto r16 = simulate_accelerator(random_gaussian(16, 16, rng));
  const auto r32 = simulate_accelerator(random_gaussian(32, 32, rng));
  const auto r64 = simulate_accelerator(random_gaussian(64, 64, rng));
  EXPECT_LT(r16.total_cycles, r32.total_cycles);
  EXPECT_LT(r32.total_cycles, r64.total_cycles);
}

TEST(AcceleratorSim, RowsAffectOnlyPreprocessAndSweepOne) {
  Rng rng(94);
  const auto tall = simulate_accelerator(random_gaussian(128, 16, rng));
  const auto flat = simulate_accelerator(random_gaussian(16, 16, rng));
  EXPECT_GT(tall.preprocess_cycles, flat.preprocess_cycles);
  EXPECT_GT(tall.total_cycles, flat.total_cycles);
}

TEST(AcceleratorSim, NoOffchipTrafficWhenCovarianceFits) {
  Rng rng(95);
  const auto r = simulate_accelerator(random_gaussian(32, 32, rng));
  EXPECT_EQ(r.offchip_words, 0u);
}

TEST(AcceleratorSim, OffchipTrafficWhenCovarianceSpills) {
  Rng rng(96);
  AcceleratorConfig cfg;
  cfg.bram_covariance_words = 64;  // shrink BRAM to force spill at small n
  const auto r = simulate_accelerator(random_gaussian(24, 24, rng), cfg);
  EXPECT_GT(r.offchip_words, 0u);
}

TEST(AcceleratorSim, SecondsConsistentWithClock) {
  Rng rng(97);
  const auto r = simulate_accelerator(random_gaussian(20, 20, rng));
  EXPECT_NEAR(r.seconds * 150e6, static_cast<double>(r.total_cycles), 1.0);
}

TEST(AcceleratorSim, GroupCountMatchesOrdering) {
  Rng rng(98);
  const std::size_t n = 32;
  const auto r = simulate_accelerator(random_gaussian(n, n, rng));
  // 31 rounds x 2 groups (16 pairs / 8 per group) x 6 sweeps.
  EXPECT_EQ(r.rotation_groups, 31u * 2u * 6u);
}

TEST(AcceleratorSim, UtilizationAccountingIsSane) {
  Rng rng(100);
  const auto r = simulate_accelerator(random_gaussian(64, 64, rng));
  EXPECT_GT(r.update_busy_cycles, 0u);
  EXPECT_GT(r.rotation_busy_cycles, 0u);
  EXPECT_LE(r.update_utilization, 1.0 + 1e-9);
  EXPECT_GT(r.update_utilization, 0.3);  // updates dominate (Section V.C)
  EXPECT_LE(r.rotation_utilization, 1.0 + 1e-9);
}

TEST(AcceleratorSim, TallMatrixPushesUpdateUtilizationHigher) {
  Rng rng(101);
  const auto square = simulate_accelerator(random_gaussian(32, 32, rng));
  const auto tall = simulate_accelerator(random_gaussian(256, 32, rng));
  // Sweep-1 column updates scale with m, so the tall case keeps the update
  // kernels busier.
  EXPECT_GT(tall.update_busy_cycles, square.update_busy_cycles);
}

TEST(AcceleratorSim, VAccumulationSlowsTheRun) {
  Rng rng(102);
  const Matrix a = random_gaussian(32, 32, rng);
  AcceleratorConfig plain, with_v;
  with_v.accumulate_v = true;
  EXPECT_GT(simulate_accelerator(a, with_v).total_cycles,
            simulate_accelerator(a, plain).total_cycles);
}

TEST(AcceleratorSim, ShallowParamFifoAddsBackpressure) {
  Rng rng(103);
  const Matrix a = random_gaussian(24, 24, rng);
  AcceleratorConfig deep, shallow;
  deep.param_fifo_depth = 16;
  shallow.param_fifo_depth = 1;
  const auto rd = simulate_accelerator(a, deep);
  const auto rs = simulate_accelerator(a, shallow);
  EXPECT_GE(rs.fifo_backpressure_events, rd.fifo_backpressure_events);
  EXPECT_GE(rs.total_cycles, rd.total_cycles);
}

TEST(AcceleratorSim, FifoHighWaterBoundedAndModeled) {
  Rng rng(108);
  const Matrix a = random_gaussian(64, 64, rng);
  for (std::size_t depth : {1u, 2u, 4u, 16u}) {
    AcceleratorConfig cfg;
    cfg.param_fifo_depth = depth;
    const auto run = simulate_accelerator(a, cfg);
    EXPECT_GE(run.param_fifo_high_water, 1u) << "depth " << depth;
    EXPECT_LE(run.param_fifo_high_water, depth) << "depth " << depth;
    const auto analytic = estimate_timing(cfg, 64, 64);
    EXPECT_GE(analytic.param_fifo_occupancy, 1u) << "depth " << depth;
    EXPECT_LE(analytic.param_fifo_occupancy, depth) << "depth " << depth;
  }
  // With updates slower than the issue cadence the rotation unit runs
  // ahead until the FIFO is full: measured and modeled occupancy both
  // saturate at the configured depth.
  AcceleratorConfig slow;
  slow.param_fifo_depth = 3;
  slow.cov_pairs_per_cycle = 0.25;
  const auto run = simulate_accelerator(a, slow);
  const auto analytic = estimate_timing(slow, 64, 64);
  EXPECT_EQ(run.param_fifo_high_water, 3u);
  EXPECT_EQ(analytic.param_fifo_occupancy, 3u);
}

TEST(AcceleratorSim, ZeroDepthFifoRejected) {
  Rng rng(104);
  AcceleratorConfig cfg;
  cfg.param_fifo_depth = 0;
  EXPECT_THROW(simulate_accelerator(random_gaussian(8, 8, rng), cfg), Error);
}

TEST(AcceleratorSim, InvalidRatesRejected) {
  // Regression: zero / non-finite rates used to flow straight into ceil_div
  // denominators and the seconds conversion, yielding inf/NaN cycle counts
  // instead of an error.
  Rng rng(107);
  const Matrix a = random_gaussian(8, 8, rng);
  {
    AcceleratorConfig cfg;
    cfg.cov_pairs_per_cycle = 0.0;
    EXPECT_THROW(simulate_accelerator(a, cfg), Error);
  }
  {
    AcceleratorConfig cfg;
    cfg.col_pairs_per_cycle = -1.0;
    EXPECT_THROW(simulate_accelerator(a, cfg), Error);
  }
  {
    AcceleratorConfig cfg;
    cfg.clock_hz = 0.0;
    EXPECT_THROW(simulate_accelerator(a, cfg), Error);
  }
  {
    AcceleratorConfig cfg;
    cfg.input_words_per_cycle = std::numeric_limits<double>::infinity();
    EXPECT_THROW(simulate_accelerator(a, cfg), Error);
  }
  {
    AcceleratorConfig cfg;
    cfg.memory.words_per_cycle = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(simulate_accelerator(a, cfg), Error);
  }
  {
    AcceleratorConfig cfg;
    cfg.sweeps = 0;
    EXPECT_THROW(simulate_accelerator(a, cfg), Error);
  }
}

TEST(AcceleratorSim, SingleColumnMatrixIsPreprocessPlusFinalize) {
  Rng rng(105);
  const auto r = simulate_accelerator(random_gaussian(16, 1, rng));
  EXPECT_EQ(r.rotation_groups, 0u);  // nothing to pair
  EXPECT_EQ(r.offchip_words, 0u);
  ASSERT_EQ(r.svd.singular_values.size(), 1u);
  EXPECT_GT(r.svd.singular_values[0], 0.0);
  EXPECT_EQ(r.total_cycles,
            r.preprocess_cycles + r.compute_cycles + r.finalize_cycles);
}

TEST(AcceleratorSim, SingleRowMatrixHandled) {
  Rng rng(106);
  const Matrix a = random_gaussian(1, 8, rng);
  const auto run = simulate_accelerator(a);
  const auto ref = golub_kahan_svd(a);
  ASSERT_EQ(run.svd.singular_values.size(), 1u);
  EXPECT_LT(
      singular_value_error(run.svd.singular_values, ref.singular_values),
      1e-10);
  EXPECT_GT(run.total_cycles, 0u);
}

TEST(AcceleratorSim, RotationLatencyReported) {
  Rng rng(99);
  const auto r = simulate_accelerator(random_gaussian(8, 8, rng));
  EXPECT_GE(r.rotation_latency, 231u);
  EXPECT_LE(r.rotation_latency, 260u);
}

}  // namespace
}  // namespace hjsvd::arch
