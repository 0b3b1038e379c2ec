// Reusable work-stealing scheduler for a fixed, up-front task set.
//
// The caller supplies per-task cost estimates and an initial placement of
// tasks onto workers (typically arch::shard_by_cost LPT bins, so the
// deterministic cost model still guides locality).  Each worker owns a
// deque seeded with its bin in descending-cost order; the owner pops from
// the front (largest remaining task first, preserving LPT intent) and an
// idle worker steals one task from the *back* (smallest task) of the
// victim with the greatest remaining estimated cost ("steal from
// richest").  No task is ever added after start, so termination is simply
// "every deque drained" — workers never sleep, they exit.
//
// Scheduling decisions (which worker runs which task, and when) are
// timing-dependent by design; the pool is therefore only suitable for
// tasks whose *results* do not depend on placement.  hjsvd::svd_batch
// satisfies this because every engine is bitwise-deterministic at any
// thread count.
//
// Error contract: a throwing task does not cancel the rest of the pool —
// every other task still runs to completion — and after the join the
// exception of the *lowest task index* is rethrown, independent of thread
// timing.
//
// The pool is the library's only thread runtime.  Besides the seeded waves
// above it runs fork-join loops (WorkStealingPool::fork_join): the plain
// Hestenes engine's rounds of disjoint pairs borrow the resident threads
// of the EngineInstance that owns the pool.  There is one level of
// threads: a fork-join issued from inside a pool task runs inline on that
// task's thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace hjsvd {

/// Context handed to the task callback.
struct PoolTaskInfo {
  std::size_t task = 0;     ///< Index into the submitted task set.
  std::size_t worker = 0;   ///< Executing worker id in [0, workers).
  bool stolen = false;      ///< Acquired by stealing rather than from the
                            ///< worker's own seeded deque.
  std::size_t queued = 0;   ///< Tasks still waiting across all deques at the
                            ///< moment this one was acquired.
};

struct WorkStealingOptions {
  /// Worker threads to spawn.  Must be >= 1.
  std::size_t workers = 1;
  /// Optional hook run on each worker thread before it acquires any task
  /// (e.g. to register a trace timeline for that worker).
  std::function<void(std::size_t worker)> worker_start;
};

/// Aggregate scheduler behaviour of one run_work_stealing() call.
struct PoolStats {
  std::size_t workers = 0;            ///< Workers that took part (the
                                      ///< calling thread is worker 0).
  std::uint64_t tasks = 0;            ///< Tasks executed (== task count).
  std::uint64_t steals = 0;           ///< Tasks acquired from a victim deque.
  double wall_s = 0.0;                ///< Spawn-to-join wall clock.
  std::vector<std::uint64_t> executed;  ///< Per worker: tasks run.
  std::vector<std::uint64_t> stolen;    ///< Per worker: tasks it stole.
  std::vector<double> busy_s;  ///< Per worker: time spent inside tasks.
  std::vector<double> idle_s;  ///< Per worker: wall_s - busy_s (steal-loop
                               ///< spinning plus post-drain waiting).
  /// Queue occupancy samples in acquisition order: element k is the number
  /// of tasks still waiting when the k-th task (globally) was acquired.
  std::vector<std::size_t> occupancy;
};

/// Warm work-stealing pool of `workers` workers: the thread that calls
/// run() or fork_join() is worker 0, and workers - 1 resident threads,
/// spawned once at construction and parked between jobs, are workers 1 and
/// up.  A long-lived caller (hjsvd::EngineInstance under hjsvd_serve) thus
/// pays the thread-spawn cost exactly once instead of per batch, and no
/// thread sits idle while the caller waits.  Each run() call dispatches
/// one wave of tasks with the same deque/steal/error semantics as
/// run_work_stealing above; a wave may use any options.workers up to the
/// pool size — workers [0, options.workers) participate, the rest sleep
/// through the wave.  Scheduling stays timing-dependent, so the same
/// "bitwise-deterministic tasks only" contract applies.
class WorkStealingPool {
 public:
  /// Spawns `workers` - 1 resident threads (`workers` must be >= 1).
  explicit WorkStealingPool(std::size_t workers);
  /// Joins the resident threads.  No run() may be in flight.
  ~WorkStealingPool();
  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Workers, the calling thread included.
  std::size_t workers() const { return workers_; }

  /// Dispatches one wave: runs `fn` once per task across workers
  /// [0, options.workers) (options.workers <= workers()), worker 0 being
  /// the calling thread, and returns the scheduler stats.  Input contract
  /// and error contract are identical to run_work_stealing;
  /// options.worker_start runs per wave.  Thread-safe — concurrent run()
  /// calls serialize, they never interleave waves.
  /// stats.wall_s covers dispatch-to-drain (no spawn cost by design).
  PoolStats run(const std::vector<double>& costs,
                const std::vector<std::vector<std::size_t>>& bins,
                const WorkStealingOptions& options,
                const std::function<void(const PoolTaskInfo&)>& fn);

  /// Fork-join loop: runs fn(i) exactly once for every i in [0, count) on
  /// up to workers() workers (the calling thread and resident threads), and
  /// returns once every index has run.  Worker w runs the w-th of
  /// min(workers(), count) equal contiguous ranges (a static schedule), so
  /// fn must not depend on which thread runs which index.  Runs inline on the calling thread when count < 2, when the
  /// pool has one worker, or when called from inside a pool task or
  /// another fork-join (one level of threads, never nested teams).  Error
  /// contract as in run(): a throwing index does not stop the others, and
  /// the exception of the lowest throwing index is rethrown after all
  /// indices have run.  Concurrent calls serialize like run().
  template <class Fn>
  void fork_join(std::size_t count, Fn&& fn) {
    LowestError error;
    run_chunks(count, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        try {
          fn(i);
        } catch (...) {
          error.record(i, std::current_exception());
        }
      }
    });
    if (error.error) std::rethrow_exception(error.error);
  }

 private:
  /// The exception of the lowest failing index of one fork-join.
  struct LowestError {
    std::mutex mu;
    std::size_t index = 0;
    std::exception_ptr error;
    void record(std::size_t i, std::exception_ptr e);
  };
  /// Splits [0, count) into one range per worker and runs
  /// `chunk(begin, end)` on each, across the caller and the resident
  /// threads.  `chunk` must not throw.
  void run_chunks(std::size_t count,
                  const std::function<void(std::size_t, std::size_t)>& chunk);

  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::size_t workers_ = 0;
};

/// Runs `fn` once per task across `options.workers` threads and returns the
/// scheduler stats.  `costs[t]` is the estimated cost of task t (finite,
/// >= 0); `bins[w]` lists the tasks seeded onto worker w's deque, and the
/// bins must cover every task exactly once (bins beyond options.workers are
/// rejected).  Throws hjsvd::Error on malformed input; rethrows the
/// lowest-index task exception after all tasks have run.  One-shot
/// convenience over WorkStealingPool: builds an ephemeral pool of
/// options.workers workers, dispatches a single wave, and tears it down.
PoolStats run_work_stealing(const std::vector<double>& costs,
                            const std::vector<std::vector<std::size_t>>& bins,
                            const WorkStealingOptions& options,
                            const std::function<void(const PoolTaskInfo&)>& fn);

/// The meaning of `threads = 0` across the library:
/// std::thread::hardware_concurrency(), and at least 1.
std::size_t default_thread_count();

}  // namespace hjsvd
