// Transaction-level discrete-event model of the full accelerator.
//
// Faithfully follows Fig. 1's structure: the Hestenes preprocessor builds D
// (simulated cycle-by-cycle), then sweeps of round-robin rotation groups
// flow through the Jacobi rotation component (issue cadence 8 rotations /
// 64 cycles, latency derived by list-scheduling eqs. (8)-(10) onto the
// shared cores) into the update kernels via a bounded FIFO; covariance
// traffic beyond the on-chip capacity is serialized through the HC-2 memory
// channel model.  The sqrt core finalizes the singular values.
//
// Numerics: identical to the library algorithm — the simulator performs the
// same rotations in the same order with the same arithmetic, so its
// singular values are bit-identical to modified_hestenes_svd with
// round-robin ordering, hardware rotation formula, and the layered Gram
// association (asserted by tests/arch tests).
#pragma once

#include <cstdint>

#include "arch/config.hpp"
#include "arch/timing_model.hpp"
#include "linalg/matrix.hpp"
#include "linalg/residuals.hpp"

namespace hjsvd::arch {

/// Result of a simulated accelerator run.
struct AcceleratorRunResult {
  SvdResult svd;  // singular values (the hardware outputs values only)

  // Cycle accounting.
  hwsim::Cycle preprocess_cycles = 0;
  hwsim::Cycle compute_cycles = 0;   // sweeps incl. pipeline drains
  hwsim::Cycle finalize_cycles = 0;
  hwsim::Cycle total_cycles = 0;
  double seconds = 0.0;

  // Diagnostics.
  std::uint64_t rotation_groups = 0;
  std::uint64_t fifo_backpressure_events = 0;  // rotation unit held by updates
  std::uint64_t offchip_words = 0;
  std::uint32_t rotation_latency = 0;
  /// Max parameter-FIFO occupancy observed at any group issue: rotation
  /// groups issued whose covariance updates had not yet drained (in
  /// groups).  Bounded by AcceleratorConfig::param_fifo_depth.
  std::size_t param_fifo_high_water = 0;
  /// The same high-water calibrated to single rotations (groups x
  /// rotation_group_size; tests/arch/test_fifo_calibration.cpp).
  std::size_t param_fifo_high_water_rotations = 0;

  // Component occupancy: cycles each unit spent doing work, and its
  // utilization over the sweep phase (the paper's bottleneck analysis —
  // "performance is dominated by the amount of updates after each
  // rotation", Section V.C).
  hwsim::Cycle update_busy_cycles = 0;
  hwsim::Cycle rotation_busy_cycles = 0;
  double update_utilization = 0.0;
  double rotation_utilization = 0.0;
};

/// Simulates decomposing `a` on the configured accelerator.
AcceleratorRunResult simulate_accelerator(const Matrix& a,
                                          const AcceleratorConfig& cfg = {});

}  // namespace hjsvd::arch
