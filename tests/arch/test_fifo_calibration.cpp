// FIFO calibration (docs/OBSERVABILITY.md): the simulator's parameter-FIFO
// high-water counts rotation *groups* of AcceleratorConfig::
// rotation_group_size rotations, and is also reported in single rotations
// (d groups = d * rotation_group_size rotations).  These tests pin the
// mapping down and check the analytic model against the simulator.
#include "arch/accelerator_sim.hpp"

#include <gtest/gtest.h>

#include <cstddef>

#include "arch/timing_model.hpp"
#include "common/rng.hpp"
#include "linalg/generate.hpp"
#include "obs/metrics.hpp"

namespace hjsvd::arch {
namespace {

// n chosen so a full group's covariance updates outlast the rotation issue
// cadence — ceil(8 * (192 - 2) / 16) = 95 cycles > 64 — which is what lets
// the rotation unit run ahead and actually fill the FIFO (the paper's
// "performance is dominated by the amount of updates" regime).  Smaller n
// would leave the FIFO near-empty and the domination check vacuous.
constexpr std::size_t kN = 192;

Matrix saturating_matrix() {
  Rng rng(2026);
  return random_gaussian(kN, kN, rng);
}

TEST(FifoCalibration, SimulatedFifoSaturatesAtConfiguredDepth) {
  const Matrix a = saturating_matrix();
  for (const std::uint32_t depth : {1u, 2u, 8u}) {
    AcceleratorConfig cfg;
    cfg.param_fifo_depth = depth;
    const auto run = simulate_accelerator(a, cfg);
    EXPECT_EQ(run.param_fifo_high_water, depth) << "depth " << depth;
    EXPECT_EQ(run.param_fifo_high_water_rotations,
              depth * cfg.rotation_group_size)
        << "depth " << depth;
  }
}

TEST(FifoCalibration, MetricsShareNamespaceWithExplicitUnits) {
  if (!obs::kEnabled) GTEST_SKIP() << "metrics compiled out (HJSVD_OBS=OFF)";
  const Matrix a = saturating_matrix();
  obs::MetricsRegistry metrics;

  AcceleratorConfig cfg;
  cfg.param_fifo_depth = 2;
  cfg.obs.metrics = &metrics;
  simulate_accelerator(a, cfg);

  // Explicit units: the high-water in groups and, calibrated, in rotations.
  EXPECT_EQ(metrics.unit("sim.param_fifo.high_water").value(),
            "rotation_groups");
  EXPECT_EQ(metrics.unit("sim.param_fifo.high_water_rotations").value(),
            "rotations");
  EXPECT_EQ(metrics.gauge("sim.rotation_group_size").value(),
            static_cast<double>(cfg.rotation_group_size));
  EXPECT_EQ(metrics.gauge("sim.param_fifo.high_water_rotations").value(),
            metrics.gauge("sim.param_fifo.high_water").value() *
                static_cast<double>(cfg.rotation_group_size));
}

TEST(FifoCalibration, AnalyticModelAgreesWithSimulatorWhenSaturated) {
  for (const std::uint32_t depth : {1u, 2u, 8u}) {
    AcceleratorConfig cfg;
    cfg.param_fifo_depth = depth;
    const auto t = estimate_timing(cfg, kN, kN);
    EXPECT_EQ(t.param_fifo_occupancy, depth);
    EXPECT_EQ(t.param_fifo_occupancy_rotations,
              depth * cfg.rotation_group_size);
  }
}

}  // namespace
}  // namespace hjsvd::arch
