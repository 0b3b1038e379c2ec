// Analytic timing model of the accelerator.
//
// Derivation (DESIGN.md §5): the run is a preprocessing phase (D = A^T A on
// the multiplier-array), then `sweeps` sweeps of round-robin rotation
// groups.  Each group of up to 8 rotations is bounded by the slowest of
//   (a) the rotation component's issue cadence (64 cycles per group),
//   (b) the update kernels (column pairs in sweep 1 at 8/cycle, covariance
//       pairs at an effective 16/cycle),
//   (c) off-chip covariance traffic when D does not fit in BRAM (n > 256).
// Singular values are finalized through the pipelined sqrt core.  The model
// reproduces the paper's Table I within ~15% and is cross-validated against
// the transaction-level simulator (accelerator_sim) at small sizes.
#pragma once

#include <string>

#include "arch/config.hpp"
#include "hwsim/clock.hpp"

namespace hjsvd::arch {

/// Cycle/time breakdown of one accelerator run.
struct TimingBreakdown {
  hwsim::Cycle preprocess = 0;     // D = A^T A (incl. input streaming bound)
  hwsim::Cycle sweep1 = 0;         // rotations + column & covariance updates
  hwsim::Cycle later_sweeps = 0;   // sweeps 2..S (covariances only)
  hwsim::Cycle finalize = 0;       // sqrt over the diagonal
  hwsim::Cycle total = 0;
  double seconds = 0.0;

  // Diagnostics.
  hwsim::Cycle io_bound_cycles = 0;  // group cycles set by off-chip traffic
  std::uint64_t rotations_per_sweep = 0;
  bool covariance_fits_onchip = true;
  std::uint32_t rotation_latency = 0;  // derived from the dataflow schedule
  /// Steady-state parameter-FIFO occupancy (in rotation groups): the FIFO
  /// saturates at param_fifo_depth when a group's updates take longer than
  /// the issue cadence; otherwise a group stays resident for its rotation
  /// latency plus update drain, so occupancy is that residency divided by
  /// the cadence.  Cross-checked against the simulator's measured
  /// param_fifo_high_water.
  std::size_t param_fifo_occupancy = 0;
  /// The same steady-state occupancy in single rotations (groups x
  /// rotation_group_size; the FIFO calibration of docs/OBSERVABILITY.md,
  /// pinned by tests/arch/test_fifo_calibration).
  std::size_t param_fifo_occupancy_rotations = 0;
};

/// Estimates the execution of an m x n decomposition on the accelerator.
TimingBreakdown estimate_timing(const AcceleratorConfig& cfg, std::size_t m,
                                std::size_t n);

/// Convenience: estimated seconds.
double estimate_seconds(const AcceleratorConfig& cfg, std::size_t m,
                        std::size_t n);

/// Human-readable breakdown.
std::string format_timing(const TimingBreakdown& t, std::size_t m,
                          std::size_t n);

}  // namespace hjsvd::arch
