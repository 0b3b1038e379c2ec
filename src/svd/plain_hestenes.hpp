// Plain (recomputing) one-sided Hestenes-Jacobi SVD.
//
// This is the textbook algorithm — and the design point of the prior FPGA
// work the paper improves on ([12], "iterative design with duplicated
// computations"): every orthogonalization recomputes the two squared
// 2-norms and the covariance from the column data (3 dot products of length
// m) and rotates the m-element columns, instead of maintaining the cached
// covariance matrix D.  The D-caching ablation benchmark contrasts the two.
//
// A side benefit: the columns converge to B = U * Sigma directly, so U is
// read off by normalizing them.
//
// The sweep walks its ordering round by round (sweep_rounds).  The pairs of
// a round touch disjoint columns, so the native entry point can run a round
// on a WorkStealingPool, one fork-join per round — the software mirror of
// the hardware's concurrent rotations (Figs. 1 and 6).  No datum is read
// and written by two pairs of a round, and per-pair statistics are folded
// in pair order after the join, so results, stats and numerics-probe
// samples are bitwise identical at every pool size and inline.  The
// sweeps run on the modified engine's driver (svd/sweep_driver.hpp), so
// both engines record the same stats, metrics and `sweep`/`finalize` spans.
#pragma once

#include "fp/latency.hpp"
#include "fp/ops.hpp"
#include "linalg/matrix.hpp"
#include "linalg/residuals.hpp"
#include "svd/hestenes.hpp"

namespace hjsvd {

class WorkStealingPool;

/// Plain one-sided Jacobi, generic over the arithmetic policy.  Honors the
/// same HestenesConfig fields as the modified algorithm (max_sweeps,
/// tolerance, ordering, formula, compute_u/v, track_convergence,
/// rotation_threshold).  Each round's pairs run on `pool` when it is
/// non-null (the calling thread joins in), inline otherwise.  Only
/// fp::NativeOps takes a pool: the other policies keep shared tallies
/// (OpCounts, FixedStats) and throw hjsvd::Error when given one.
template <class Ops>
SvdResult plain_hestenes_svd_t(const Matrix& a, const HestenesConfig& cfg,
                               HestenesStats* stats, Ops ops,
                               WorkStealingPool* pool = nullptr);

/// Host-FPU entry point; `pool` as in plain_hestenes_svd_t.
SvdResult plain_hestenes_svd(const Matrix& a, const HestenesConfig& cfg = {},
                             HestenesStats* stats = nullptr,
                             WorkStealingPool* pool = nullptr);

/// Operation-counting entry point (D-caching ablation).
SvdResult plain_hestenes_svd_counting(const Matrix& a,
                                      const HestenesConfig& cfg,
                                      fp::OpCounts& counts,
                                      HestenesStats* stats = nullptr);

}  // namespace hjsvd
