#include "baselines/parallel_hestenes.hpp"

#include "common/pool.hpp"
#include "svd/plain_hestenes.hpp"

namespace hjsvd {

SvdResult parallel_hestenes_svd(const Matrix& a, const HestenesConfig& cfg,
                                HestenesStats* stats) {
  // The bulk-synchronous GPU-like execution is exactly the plain engine's
  // round-robin rounds on one thread per hardware thread.
  HestenesConfig rounds = cfg;
  rounds.ordering = Ordering::kRoundRobin;
  WorkStealingPool pool(default_thread_count());
  return plain_hestenes_svd(a, rounds, stats, &pool);
}

}  // namespace hjsvd
