// The paper's primary contribution: the modified Hestenes-Jacobi SVD
// (Algorithm 1), which caches the covariance matrix D = A^T A and applies
// every Jacobi rotation directly to D instead of re-computing norms and
// covariances from the columns each sweep.  Column data is only read once
// (to build D) and, when singular vectors are requested, once more at the
// end (U = A * V * Sigma^-1, eq. (7)).
#pragma once

#include <cstdint>
#include <vector>

#include "fp/latency.hpp"
#include "fp/ops.hpp"
#include "linalg/matrix.hpp"
#include "linalg/residuals.hpp"
#include "obs/sinks.hpp"
#include "svd/ordering.hpp"
#include "svd/rotation.hpp"

namespace hjsvd {

class Workspace;

/// Configuration of a Hestenes-Jacobi run.
struct HestenesConfig {
  /// Maximum number of sweeps.  The paper executes a fixed 6 sweeps, "which
  /// is believed sufficient for achieving convergence with certain
  /// thresholds" (Section VI.A).
  std::size_t max_sweeps = 6;

  /// Early-termination threshold on max |off-diagonal| / max diagonal of D,
  /// checked after each sweep.  0 disables early termination (fixed sweep
  /// count, as in the paper's hardware).
  double tolerance = 0.0;

  /// Pair ordering per sweep (Fig. 6 uses the round-robin tournament).
  Ordering ordering = Ordering::kRoundRobin;

  /// Rotation-parameter formula (the FPGA evaluates the closed forms of
  /// eqs. (8)-(10)).
  RotationFormula formula = RotationFormula::kHardware;

  bool compute_u = false;
  bool compute_v = false;

  /// Record per-sweep convergence metrics into HestenesStats.
  bool track_convergence = false;

  /// Threshold-Jacobi: skip a pair when |cov| <= threshold *
  /// sqrt(D_ii * D_jj) (relative off-diagonal magnitude).  0 rotates every
  /// non-zero covariance, as the paper's hardware does; a small threshold
  /// (e.g. 1e-12) saves late-sweep rotations with negligible accuracy cost
  /// (bench_ablation_threshold quantifies the trade).
  double rotation_threshold = 0.0;

  /// Observability sinks (trace spans + metrics).  Both pointers default to
  /// null = record nothing; recording never changes the arithmetic, so
  /// results are byte-identical with and without sinks attached (asserted
  /// by tests/obs/test_obs.cpp).  See docs/OBSERVABILITY.md.
  obs::ObsContext obs{};

  /// Opt-in relaxed SIMD tier (native arithmetic only): Gram/covariance dot
  /// products use the 4-lane-split accumulation of linalg/simd/ instead of
  /// strict left-to-right sums.  Results are no longer bitwise identical to
  /// the scalar reference, but stay deterministic — identical across SIMD
  /// dispatch levels and thread counts — and satisfy the accuracy bounds
  /// tested in tests/linalg/test_simd_kernels.cpp.  Ignored by the
  /// soft-float and counting policies and by gram_chunk_rows != 1 (the
  /// chunked association is itself the requested accumulation order).
  bool simd_relaxed = false;

  /// Optional scratch arena (svd/workspace.hpp) the engine draws its
  /// internal buffers from — Gram matrix, rotation accumulator, and the
  /// finalization temporaries that do not escape into the result.  Null
  /// (the default) allocates fresh buffers per run.  Results are bitwise
  /// identical either way (acquired buffers come back zeroed); the arena
  /// must not be shared across concurrently running engines.  Honored by
  /// the modified engine only; the plain engine ignores it.
  Workspace* workspace = nullptr;

  /// Accumulation chunking of the initial Gram computation: chunk_rows = 1
  /// is strict left-to-right; chunk_rows = L models the hardware's layered
  /// multiplier-array (partial sums over L rows chained through the layers,
  /// then accumulated chunk by chunk).  The architecture model passes its
  /// layer count here so library and simulator agree bit-for-bit.
  std::size_t gram_chunk_rows = 1;
};

/// Per-sweep convergence record (the metric of Figs. 10-11).
struct SweepRecord {
  double mean_abs_offdiag = 0.0;  // mean |covariance| after the sweep
  double max_rel_offdiag = 0.0;   // max |off-diag| / max diag
  std::uint64_t rotations = 0;
  std::uint64_t skipped = 0;  // pairs with exactly zero covariance
};

/// Statistics of a completed run.
struct HestenesStats {
  std::vector<SweepRecord> sweeps;
  std::uint64_t total_rotations = 0;
  std::uint64_t total_skipped = 0;
};

/// Modified Hestenes-Jacobi SVD (Algorithm 1), generic over the arithmetic
/// policy.  Defined in hestenes_impl.hpp and explicitly instantiated for
/// fp::NativeOps, fp::SoftOps and fp::CountingOps.
template <class Ops>
SvdResult modified_hestenes_svd_t(const Matrix& a, const HestenesConfig& cfg,
                                  HestenesStats* stats, Ops ops);

/// Host-FPU convenience entry point.
SvdResult modified_hestenes_svd(const Matrix& a,
                                const HestenesConfig& cfg = {},
                                HestenesStats* stats = nullptr);

/// Bit-accurate soft-float entry point (models the Coregen cores).
SvdResult modified_hestenes_svd_soft(const Matrix& a,
                                     const HestenesConfig& cfg = {},
                                     HestenesStats* stats = nullptr);

/// Operation-counting entry point (ablation studies).
SvdResult modified_hestenes_svd_counting(const Matrix& a,
                                         const HestenesConfig& cfg,
                                         fp::OpCounts& counts,
                                         HestenesStats* stats = nullptr);

/// Upper-triangular Gram matrix computed with the given arithmetic policy.
/// chunk_rows = 1 gives strict left-to-right accumulation; chunk_rows = L
/// reproduces the layered multiplier-array's association (see
/// HestenesConfig::gram_chunk_rows).
template <class Ops>
Matrix gram_upper_ops(const Matrix& a, Ops ops, std::size_t chunk_rows = 1);

/// gram_upper_ops into a caller-provided n x n matrix (a Matrix, or the
/// engines' padded SquareView) whose strict lower triangle must already be
/// zero (a fresh or Workspace-acquired buffer); only entries with
/// row <= col are written.  Allocation-free and bitwise equal to
/// gram_upper_ops(a, ops, chunk_rows).
template <class Mat, class Ops>
void gram_upper_ops_into(Mat& d, const Matrix& a, Ops ops,
                         std::size_t chunk_rows = 1);

}  // namespace hjsvd
