#include "baselines/parallel_hestenes.hpp"

#include "common/pool.hpp"
#include "svd/parallel_sweep.hpp"

namespace hjsvd {

SvdResult parallel_hestenes_svd(const Matrix& a, const HestenesConfig& cfg,
                                HestenesStats* stats) {
  // The bulk-synchronous GPU-like execution is exactly the pair-parallel
  // plain path of the sweep engine on one thread per hardware thread.
  WorkStealingPool pool(default_thread_count());
  return parallel_plain_hestenes_svd(a, cfg, ParallelSweepConfig{.pool = &pool},
                                     stats);
}

}  // namespace hjsvd
