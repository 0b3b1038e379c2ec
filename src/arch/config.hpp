// Configuration of the Hestenes-Jacobi accelerator, defaulting to the exact
// build evaluated in the paper (Section VI.A).
#pragma once

#include <cstdint>

#include "arch/device.hpp"
#include "fp/latency.hpp"
#include "obs/sinks.hpp"

namespace hjsvd::arch {

struct AcceleratorConfig {
  // --- Hestenes preprocessor ----------------------------------------------
  /// "four layers of multiplier-array are implemented, in which 16
  /// multipliers and 16 adders are used."
  std::uint32_t preproc_layers = 4;
  std::uint32_t preproc_lanes = 4;  // multipliers per layer

  // --- Jacobi rotation component ------------------------------------------
  /// "1 multiplier, 2 adders, 1 divider and 1 square-root calculators are
  /// used, which can start 8 independent Jacobi rotations in every 64 clock
  /// cycles."
  std::uint32_t rotation_group_size = 8;
  std::uint32_t rotation_issue_cycles = 64;

  // --- Update operator ------------------------------------------------------
  /// "an array of eight update kernels ... 32 multipliers and 16 adders or
  /// subtractors"; each kernel retires one element-pair per cycle.
  std::uint32_t update_kernels = 8;
  /// The preprocessor "is then reconfigured as four update kernels with 16
  /// multipliers and 8 adders in the remaining iterations."
  std::uint32_t preproc_as_kernels = 4;
  /// Effective covariance pair-update rate (pairs/cycle) once all kernels
  /// participate.  12 kernels with the fused symmetric-update datapath give
  /// an effective 16/cycle; this calibration constant reproduces Table I
  /// within ~15% (DESIGN.md §5).
  double cov_pairs_per_cycle = 16.0;
  /// Column element-pair rate in the first sweep (the 8 dedicated kernels).
  double col_pairs_per_cycle = 8.0;

  // --- Sweeps and clock -----------------------------------------------------
  /// "executing at 150MHz for 6 iterations".
  std::uint32_t sweeps = 6;
  double clock_hz = 150e6;

  // --- I/O and storage -------------------------------------------------------
  /// "Two groups of eight 64-bit width FIFOs ... synchronize the input and
  /// output": 8 doubles/cycle of input streaming bandwidth.
  double input_words_per_cycle = 8.0;
  /// "The whole covariance matrix can be stored in the local memory for
  /// matrices of column dimension no greater than 256": upper-triangular
  /// capacity 256*257/2 doubles.
  std::uint64_t bram_covariance_words = 256ull * 257ull / 2ull;
  /// Off-chip memory system (covariance spill traffic when n > 256).
  Hc2Memory memory;

  // --- Extensions beyond the paper's build ------------------------------------
  /// Accumulate the right singular vectors on chip: every rotation also
  /// rotates two n-element columns of V through the update kernels, in
  /// every sweep.  The paper's hardware outputs singular values only; this
  /// models the natural extension (and its cost — see the timing model).
  bool accumulate_v = false;

  /// Depth of the rotation-parameter FIFO between the Jacobi rotation
  /// component and the update operator (groups in flight).
  std::uint32_t param_fifo_depth = 4;

  // --- Floating-point cores ---------------------------------------------------
  fp::CoreLatencies latencies;

  /// Observability sinks (docs/OBSERVABILITY.md).  The simulator registers
  /// its units under obs::kSimulatorPid and timestamps spans in *simulated*
  /// time (cycles / clock_hz), so a hardware timeline loads side by side
  /// with the software engines' wall-clock timelines; metrics land in the
  /// sim.* namespace with explicit units ("rotation_groups" vs "rotations")
  /// next to the software svd.* metrics.  Null sinks record nothing.
  obs::ObsContext obs{};

  /// Total update-kernel count active from sweep 2 on.
  std::uint32_t total_kernels_late() const {
    return update_kernels + preproc_as_kernels;
  }
  /// MAC throughput of the preprocessor (multiplies per cycle).
  std::uint32_t preproc_macs_per_cycle() const {
    return preproc_layers * preproc_lanes;
  }
};

}  // namespace hjsvd::arch
