#include "common/pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "common/error.hpp"

namespace hjsvd {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One worker's deque.  `remaining` mirrors the summed estimated cost of
/// the queued tasks; it is only *written* under `mu` but read lock-free by
/// thieves ranking victims — a stale read merely picks a slightly poorer
/// victim, never a wrong result.
struct WorkerDeque {
  std::mutex mu;
  std::deque<std::size_t> tasks;
  std::atomic<double> remaining{0.0};
};

/// Everything one wave's workers share.  Lives on the dispatching run()
/// call's stack; participants are guaranteed to finish (and stop touching
/// it) before run() returns, so plain pointers are safe.
struct WaveState {
  const std::vector<double>* costs = nullptr;
  const WorkStealingOptions* options = nullptr;
  const std::function<void(const PoolTaskInfo&)>* fn = nullptr;
  std::vector<WorkerDeque>* deques = nullptr;
  PoolStats* stats = nullptr;
  std::vector<std::exception_ptr>* errors = nullptr;
  /// Unacquired tasks; drives the occupancy samples and their global order.
  std::atomic<std::size_t> queued{0};
  std::size_t participants = 0;
  std::size_t n_tasks = 0;
};

/// Set on every resident pool thread, and on a fork-join caller while it
/// runs chunks: a fork-join issued there runs inline.
thread_local bool tls_in_pool = false;

/// How long a parked resident, or a caller waiting for a job to drain,
/// polls before it blocks on a condition variable: long enough to span the
/// serial phase between two fork-joins of a sweep, so back-to-back rounds
/// skip the sleep/wake round trip, and short enough that an idle pool
/// costs nothing measurable.
constexpr auto kSpinWindow = std::chrono::microseconds(50);

/// Polls pred() for up to kSpinWindow; returns whether it came true.
template <class Pred>
bool spin_until(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  for (unsigned i = 1;; ++i) {
    if (pred()) return true;
    if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline)
      return false;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

/// The work-stealing loop of one participating worker: drain the own deque
/// front-first, then steal back-first from the richest victim until every
/// deque is empty.
void wave_worker(WaveState& wv, std::size_t self) {
  const std::vector<double>& costs = *wv.costs;
  std::vector<WorkerDeque>& deques = *wv.deques;
  const WorkStealingOptions& options = *wv.options;
  PoolStats& stats = *wv.stats;
  const std::size_t workers = wv.participants;

  if (options.worker_start) options.worker_start(self);

  // Pop the task with the largest remaining estimate (front of the
  // LPT-ordered deque); thieves take the smallest (back) so the victim
  // keeps the work its seed placed there for longest.
  const auto try_pop = [&](std::size_t w, bool back,
                           std::size_t* out) -> bool {
    WorkerDeque& d = deques[w];
    std::lock_guard<std::mutex> lock(d.mu);
    if (d.tasks.empty()) {
      d.remaining.store(0.0, std::memory_order_relaxed);
      return false;
    }
    if (back) {
      *out = d.tasks.back();
      d.tasks.pop_back();
    } else {
      *out = d.tasks.front();
      d.tasks.pop_front();
    }
    const double rest =
        d.remaining.load(std::memory_order_relaxed) - costs[*out];
    d.remaining.store(rest > 0.0 ? rest : 0.0, std::memory_order_relaxed);
    return true;
  };

  double busy = 0.0;
  for (;;) {
    std::size_t task = 0;
    bool stolen = false;
    if (!try_pop(self, /*back=*/false, &task)) {
      // Own deque drained: steal from the richest victim.  Snapshots can
      // be stale, so fall back to a locked linear sweep before giving up
      // (zero-cost tasks never show up in the snapshot ranking).
      bool found = false;
      for (;;) {
        std::size_t victim = workers;
        double best = 0.0;
        for (std::size_t w = 0; w < workers; ++w) {
          if (w == self) continue;
          const double r = deques[w].remaining.load(std::memory_order_relaxed);
          if (r > best) {
            best = r;
            victim = w;
          }
        }
        if (victim == workers) break;
        if (try_pop(victim, /*back=*/true, &task)) {
          found = true;
          break;
        }
      }
      if (!found)
        for (std::size_t w = 0; w < workers && !found; ++w)
          found = try_pop(w, /*back=*/true, &task);
      // No task anywhere.  Tasks are never enqueued after wave start, so an
      // all-empty sweep is conclusive: exit instead of spinning.
      if (!found) break;
      stolen = true;
    }

    PoolTaskInfo info;
    info.task = task;
    info.worker = self;
    info.stolen = stolen;
    const std::size_t before =
        wv.queued.fetch_sub(1, std::memory_order_acq_rel);
    info.queued = before - 1;
    stats.occupancy[wv.n_tasks - before] = info.queued;

    const auto task_t0 = std::chrono::steady_clock::now();
    try {
      (*wv.fn)(info);
    } catch (...) {
      (*wv.errors)[task] = std::current_exception();
    }
    busy += seconds_since(task_t0);
    ++stats.executed[self];
    if (stolen) ++stats.stolen[self];
  }
  stats.busy_s[self] = busy;
}

}  // namespace

/// Resident-thread state.  Worker 0 of every job is the calling thread;
/// resident thread r is worker r + 1.  launch() publishes a job as one
/// atomic ticket, (generation << kCountBits) | worker count, and finish()
/// waits until every resident participant has counted itself out.  A
/// resident that just ran a job polls the ticket for a while before it
/// parks on `cv`, so the fork-joins of consecutive sweep rounds hand over
/// without a sleep/wake round trip.  Only participants read `job`: it is
/// written before the ticket that names them and rewritten only by the
/// next launch(), which waits for all of them; so the job (and the state
/// it captures on the launching call's stack) outlives every use of it.
struct WorkStealingPool::Impl {
  static constexpr unsigned kCountBits = 16;
  static constexpr std::uint64_t kCountMask = (1u << kCountBits) - 1;

  std::mutex mu;  ///< Guards `shutdown` and the sleeps on both cvs.
  std::condition_variable cv;
  std::condition_variable done_cv;
  std::atomic<std::uint64_t> ticket{0};
  /// Resident participants yet to finish the job; the last one notifies
  /// `done_cv`.
  std::atomic<std::size_t> done_pending{0};
  const std::function<void(std::size_t)>* job = nullptr;
  bool shutdown = false;
  /// Serializes run() and fork_join() callers; resident threads never take
  /// it.
  std::mutex run_mu;
  std::vector<std::thread> threads;

  void resident_main(std::size_t self) {
    tls_in_pool = true;
    std::uint64_t seen = 0;  // generation of the last ticket read
    // Only a thread that just ran a job polls for the next one: a thread
    // left out of a narrower job would only burn a core the job needs.
    bool poll = false;
    const auto fresh = [&] {
      return (ticket.load(std::memory_order_acquire) >> kCountBits) != seen;
    };
    for (;;) {
      if (!(poll && spin_until(fresh))) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return shutdown || fresh(); });
        if (shutdown) return;
      }
      const std::uint64_t t = ticket.load(std::memory_order_acquire);
      seen = t >> kCountBits;
      poll = self < (t & kCountMask);
      if (!poll) continue;  // not a participant of this job
      (*job)(self);
      if (done_pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(mu);
        done_cv.notify_all();
      }
    }
  }

  /// Starts `fn` on workers [1, count).  Caller holds run_mu.
  void launch(std::size_t count, const std::function<void(std::size_t)>& fn) {
    job = &fn;
    done_pending.store(count - 1, std::memory_order_relaxed);
    const std::uint64_t generation = (ticket.load() >> kCountBits) + 1;
    std::lock_guard<std::mutex> lock(mu);
    ticket.store((generation << kCountBits) | count,
                 std::memory_order_release);
    cv.notify_all();
  }

  /// Waits until every resident participant of the launched job has
  /// finished.
  void finish() {
    const auto drained = [&] {
      return done_pending.load(std::memory_order_acquire) == 0;
    };
    if (spin_until(drained)) return;
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, drained);
  }

  /// Runs `fn(w)` for every worker w in [0, count), worker 0 on the calling
  /// thread, and returns once all of them have.  Caller holds run_mu.
  void run_job(std::size_t count, const std::function<void(std::size_t)>& fn) {
    if (count > 1) launch(count, fn);
    const bool outer = tls_in_pool;
    tls_in_pool = true;
    std::exception_ptr error;
    try {
      fn(0);
    } catch (...) {
      error = std::current_exception();  // rethrown once the residents are out
    }
    tls_in_pool = outer;
    if (count > 1) finish();
    if (error) std::rethrow_exception(error);
  }
};

WorkStealingPool::WorkStealingPool(std::size_t workers)
    : impl_(std::make_unique<Impl>()), workers_(workers) {
  HJSVD_ENSURE(workers >= 1, "pool needs at least one worker");
  HJSVD_ENSURE(workers <= Impl::kCountMask, "pool has too many workers");
  impl_->threads.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w)
    impl_->threads.emplace_back([this, w] { impl_->resident_main(w); });
}

WorkStealingPool::~WorkStealingPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutdown = true;
  }
  impl_->cv.notify_all();
  for (auto& t : impl_->threads) t.join();
}

PoolStats WorkStealingPool::run(
    const std::vector<double>& costs,
    const std::vector<std::vector<std::size_t>>& bins,
    const WorkStealingOptions& options,
    const std::function<void(const PoolTaskInfo&)>& fn) {
  HJSVD_ENSURE(options.workers >= 1, "pool needs at least one worker");
  HJSVD_ENSURE(options.workers <= workers_,
               "wave requests more workers than the pool owns");
  HJSVD_ENSURE(bins.size() <= options.workers,
               "more seeded bins than pool workers");
  HJSVD_ENSURE(static_cast<bool>(fn), "pool task callback must be callable");
  const std::size_t n_tasks = costs.size();
  for (double c : costs)
    HJSVD_ENSURE(std::isfinite(c) && c >= 0.0,
                 "task cost estimates must be finite and non-negative");
  {
    std::vector<bool> seen(n_tasks, false);
    std::size_t covered = 0;
    for (const auto& bin : bins)
      for (std::size_t t : bin) {
        HJSVD_ENSURE(t < n_tasks, "seeded bin references unknown task");
        HJSVD_ENSURE(!seen[t], "task seeded into more than one bin");
        seen[t] = true;
        ++covered;
      }
    HJSVD_ENSURE(covered == n_tasks, "seeded bins must cover every task");
  }

  // One wave at a time: later callers queue here, not inside the workers.
  std::lock_guard<std::mutex> run_lock(impl_->run_mu);

  const std::size_t workers = options.workers;

  std::vector<WorkerDeque> deques(workers);
  for (std::size_t w = 0; w < bins.size(); ++w) {
    double sum = 0.0;
    for (std::size_t t : bins[w]) {
      deques[w].tasks.push_back(t);
      sum += costs[t];
    }
    deques[w].remaining.store(sum, std::memory_order_relaxed);
  }

  PoolStats stats;
  stats.workers = workers;
  stats.tasks = n_tasks;
  stats.executed.assign(workers, 0);
  stats.stolen.assign(workers, 0);
  stats.busy_s.assign(workers, 0.0);
  stats.idle_s.assign(workers, 0.0);
  stats.occupancy.assign(n_tasks, 0);

  // Per-task exception slots: each is written by exactly one worker (the
  // one that ran the task), read below after the wave drains.
  std::vector<std::exception_ptr> errors(n_tasks);

  WaveState wv;
  wv.costs = &costs;
  wv.options = &options;
  wv.fn = &fn;
  wv.deques = &deques;
  wv.stats = &stats;
  wv.errors = &errors;
  wv.queued.store(n_tasks, std::memory_order_relaxed);
  wv.participants = workers;
  wv.n_tasks = n_tasks;

  const std::function<void(std::size_t)> job = [&wv](std::size_t self) {
    wave_worker(wv, self);
  };
  const auto wave_t0 = std::chrono::steady_clock::now();
  impl_->run_job(workers, job);
  stats.wall_s = seconds_since(wave_t0);

  for (std::size_t w = 0; w < workers; ++w) {
    stats.steals += stats.stolen[w];
    const double idle = stats.wall_s - stats.busy_s[w];
    stats.idle_s[w] = idle > 0.0 ? idle : 0.0;
  }

  // Deterministic error surface: the lowest-index failure wins no matter
  // which worker observed it first.
  for (std::size_t t = 0; t < n_tasks; ++t)
    if (errors[t]) std::rethrow_exception(errors[t]);

  return stats;
}

void WorkStealingPool::LowestError::record(std::size_t i,
                                           std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(mu);
  if (!error || i < index) {
    index = i;
    error = std::move(e);
  }
}

void WorkStealingPool::run_chunks(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& chunk) {
  if (count == 0) return;
  const std::size_t width = std::min(workers_, count);
  if (width < 2 || tls_in_pool) {
    chunk(0, count);
    return;
  }
  // One contiguous, fixed range per worker, as OpenMP's static schedule:
  // consecutive rounds of a sweep give a worker overlapping data, which
  // stays in its cache, and no counter is contended.
  const std::function<void(std::size_t)> job = [&](std::size_t w) {
    chunk(w * count / width, (w + 1) * count / width);
  };

  std::lock_guard<std::mutex> run_lock(impl_->run_mu);
  impl_->run_job(width, job);
}

std::size_t default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

PoolStats run_work_stealing(
    const std::vector<double>& costs,
    const std::vector<std::vector<std::size_t>>& bins,
    const WorkStealingOptions& options,
    const std::function<void(const PoolTaskInfo&)>& fn) {
  HJSVD_ENSURE(options.workers >= 1, "pool needs at least one worker");
  WorkStealingPool pool(options.workers);
  return pool.run(costs, bins, options, fn);
}

}  // namespace hjsvd
