// Internal to src/api/: the dispatch shared by svd() and EngineInstance.
#pragma once

#include "api/svd.hpp"

namespace hjsvd {

class WorkStealingPool;

namespace detail {

/// Row-pairs (rows x pairs) a round of the plain engine must carry before
/// svd() and EngineInstance::decompose hand its rounds to a pool: a
/// square n = 256 round-robin round carries 32768, n = 128 carries 8192.
/// Below it a round lasts tens of microseconds and the per-round hand-off,
/// plus the spawn of an ephemeral engine's threads, costs more than the
/// pool saves (bench_parallel_sweep, svd_plain_hw_s).
inline constexpr std::size_t kMinPooledRoundWork = 16384;

/// True when `a` runs its rounds on a pool: kPlainHestenes on a matrix
/// whose round-robin rounds carry at least kMinPooledRoundWork row-pairs.
bool runs_on_pool(SvdMethod method, const Matrix& a);

/// svd() on an explicit executor: kPlainHestenes runs its rounds on `pool`
/// (null runs them inline), every other method ignores it, and
/// options.threads is not read.  EngineInstance::decompose lends its
/// resident pool through this.
SvdResult svd_on_pool(const Matrix& a, const SvdOptions& options,
                      WorkStealingPool* pool);

}  // namespace detail
}  // namespace hjsvd
