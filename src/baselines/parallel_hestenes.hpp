// Group-parallel one-sided Jacobi ("GPU-like" baseline).
//
// GPUs execute the Hestenes-Jacobi method as bulk-synchronous rounds: all
// disjoint pairs of a round-robin round are orthogonalized concurrently,
// with a barrier between rounds (the "iterative thread synchronizations"
// the paper blames for the GPU implementations' performance, Section III).
// Because the pairs within a round touch disjoint columns, the parallel
// execution is bit-identical to the sequential round-robin plain Hestenes —
// a property the tests assert.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/residuals.hpp"
#include "svd/hestenes.hpp"

namespace hjsvd {

/// Bulk-synchronous plain Hestenes-Jacobi on a pool of one thread per
/// hardware thread.  Uses round-robin rounds
/// regardless of cfg.ordering; other HestenesConfig fields are honored.
SvdResult parallel_hestenes_svd(const Matrix& a,
                                const HestenesConfig& cfg = {},
                                HestenesStats* stats = nullptr);

}  // namespace hjsvd
