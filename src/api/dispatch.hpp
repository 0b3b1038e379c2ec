// Internal to src/api/: the dispatch shared by svd() and EngineInstance.
#pragma once

#include "api/svd.hpp"

namespace hjsvd {

class WorkStealingPool;

namespace detail {

/// True for the methods whose loops run on a pool: kParallelHestenes and
/// kParallelModifiedHestenes.
bool runs_on_pool(SvdMethod method);

/// svd() on an explicit executor: the parallel methods run their loops on
/// `pool` (null runs them inline), every other method ignores it, and
/// options.threads is not read.  EngineInstance::decompose lends its
/// resident pool through this.
SvdResult svd_on_pool(const Matrix& a, const SvdOptions& options,
                      WorkStealingPool* pool);

}  // namespace detail
}  // namespace hjsvd
