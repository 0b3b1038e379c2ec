// Multi-threaded sweep engine for one-sided Jacobi SVD.
//
// The hardware issues 8 independent Jacobi rotations per 64-cycle group and
// fans each rotation's covariance updates out over an array of update
// kernels (Fig. 1).  This module is the software mirror of that structure,
// exploiting the same disjoint-pair parallelism of the round-robin ordering
// (Fig. 6) as fork-join loops on a WorkStealingPool (common/pool.hpp), one
// fork-join per round:
//
//  * Plain path — all floor(n/2) pairs of a round touch disjoint columns, so
//    their dot products and column rotations run concurrently with no
//    synchronization inside the round.  Because no datum is read and written
//    by two different pairs, the result is bitwise identical to the
//    sequential round-robin plain Hestenes at every thread count.
//
//  * Modified (Gram-rotating) path — rotation parameters of a round depend
//    only on D entries no *other* pair of the round touches, so they are all
//    generated up front on the calling thread (the serial rotation
//    component); the covariance updates are then decomposed into 2x2
//    cross-blocks between slot pairs (the block-partitioned analogue of the
//    hardware's update-kernel array).  Each cross-block is owned by exactly
//    one loop index and applies its two rotations in round order, which
//    makes the schedule race-free and the result bitwise identical to the
//    sequential round-robin modified Hestenes at every thread count.
//
// Determinism contract (asserted by tests/svd/test_parallel_sweep.cpp): for
// any pool size, or no pool at all, both engines return bit-identical
// singular values, vectors, and sweep counts — equal to their sequential
// counterparts with Ordering::kRoundRobin.
#pragma once

#include "svd/hestenes.hpp"

namespace hjsvd {

class WorkStealingPool;

/// Executor of the parallel sweep engine.
struct ParallelSweepConfig {
  /// Pool whose threads run each round's loop (the calling thread joins
  /// in); null runs every loop inline on the calling thread.  Results do
  /// not depend on this value.
  WorkStealingPool* pool = nullptr;
};

/// Pair-parallel plain (recomputing) one-sided Hestenes-Jacobi.  Uses
/// round-robin rounds regardless of cfg.ordering; other HestenesConfig
/// fields are honored.
SvdResult parallel_plain_hestenes_svd(const Matrix& a,
                                      const HestenesConfig& cfg = {},
                                      const ParallelSweepConfig& par = {},
                                      HestenesStats* stats = nullptr);

/// Block-partitioned modified (Gram-rotating) Hestenes-Jacobi: per round,
/// rotation parameters are generated serially (the hardware's rotation
/// component) and the D updates are applied by parallel cross-block tasks
/// (the update-kernel array).  Round-robin ordering is forced.
SvdResult parallel_modified_hestenes_svd(const Matrix& a,
                                         const HestenesConfig& cfg = {},
                                         const ParallelSweepConfig& par = {},
                                         HestenesStats* stats = nullptr);

}  // namespace hjsvd
