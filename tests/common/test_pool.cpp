// Tests for the reusable work-stealing scheduler.
#include "common/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "arch/multi_engine.hpp"
#include "common/error.hpp"

namespace hjsvd {
namespace {

WorkStealingOptions opts(std::size_t workers) {
  WorkStealingOptions o;
  o.workers = workers;
  return o;
}

TEST(Pool, SingleWorkerRunsSeededLptOrder) {
  // One worker, bins from the LPT sharder: the deque is seeded in
  // descending-cost order and the owner pops the front, so execution order
  // is largest-cost first.
  const std::vector<double> costs{1.0, 5.0, 3.0, 2.0};
  const auto bins = arch::shard_by_cost(costs, 1);
  std::vector<std::size_t> order;
  const auto stats = run_work_stealing(costs, bins, opts(1),
                                       [&](const PoolTaskInfo& info) {
                                         order.push_back(info.task);
                                         EXPECT_EQ(info.worker, 0u);
                                         EXPECT_FALSE(info.stolen);
                                       });
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 3, 0}));
  EXPECT_EQ(stats.tasks, 4u);
  EXPECT_EQ(stats.steals, 0u);
  EXPECT_EQ(stats.executed[0], 4u);
}

TEST(Pool, EveryTaskRunsExactlyOnceAcrossWorkers) {
  const std::size_t n = 23;
  std::vector<double> costs(n, 1.0);
  const auto bins = arch::shard_by_cost(costs, 4);
  std::vector<std::atomic<int>> runs(n);
  for (auto& r : runs) r.store(0);
  const auto stats = run_work_stealing(
      costs, bins, opts(4),
      [&](const PoolTaskInfo& info) { runs[info.task].fetch_add(1); });
  for (std::size_t t = 0; t < n; ++t) EXPECT_EQ(runs[t].load(), 1) << t;
  std::uint64_t total = 0;
  for (std::uint64_t e : stats.executed) total += e;
  EXPECT_EQ(total, n);
  // Occupancy samples are in global acquisition order: the k-th acquired
  // task saw exactly n-1-k tasks still queued.
  ASSERT_EQ(stats.occupancy.size(), n);
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_EQ(stats.occupancy[k], n - 1 - k) << k;
}

TEST(Pool, IdleWorkerStealsFromSeededVictim) {
  // All eight tasks are seeded onto worker 0; worker 1 starts empty.  The
  // first task holds worker 0 until a steal has been observed (bounded
  // wait), so worker 1's only way to contribute is stealing — its first
  // acquisition is a steal by construction.
  const std::size_t n = 8;
  std::vector<double> costs(n, 1.0);
  std::vector<std::vector<std::size_t>> bins{{0, 1, 2, 3, 4, 5, 6, 7}, {}};
  std::atomic<bool> saw_steal{false};
  const auto stats = run_work_stealing(
      costs, bins, opts(2), [&](const PoolTaskInfo& info) {
        if (info.stolen) saw_steal.store(true);
        if (info.task == 0) {
          const auto t0 = std::chrono::steady_clock::now();
          while (!saw_steal.load() &&
                 std::chrono::steady_clock::now() - t0 <
                     std::chrono::seconds(5))
            std::this_thread::yield();
        }
      });
  EXPECT_TRUE(saw_steal.load());
  EXPECT_GE(stats.steals, 1u);
  EXPECT_EQ(stats.steals, stats.stolen[0] + stats.stolen[1]);
  EXPECT_EQ(stats.executed[0] + stats.executed[1], n);
}

TEST(Pool, LowestIndexErrorWinsRegardlessOfTiming) {
  const std::size_t n = 10;
  std::vector<double> costs(n, 1.0);
  for (int rep = 0; rep < 5; ++rep) {
    const auto bins = arch::shard_by_cost(costs, 3);
    std::atomic<int> ran{0};
    try {
      run_work_stealing(costs, bins, opts(3),
                        [&](const PoolTaskInfo& info) {
                          ran.fetch_add(1);
                          if (info.task == 7) throw Error("task seven");
                          if (info.task == 3) throw Error("task three");
                        });
      FAIL() << "expected an exception";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "task three");
    }
    // A failing task cancels nothing: every task still ran.
    EXPECT_EQ(ran.load(), static_cast<int>(n));
  }
}

TEST(Pool, WorkerStartHookRunsOnEveryWorker) {
  const std::vector<double> costs{1.0, 1.0, 1.0};
  WorkStealingOptions o = opts(3);
  std::vector<std::atomic<int>> started(3);
  for (auto& s : started) s.store(0);
  o.worker_start = [&](std::size_t w) { started[w].fetch_add(1); };
  run_work_stealing(costs, arch::shard_by_cost(costs, 3), o,
                    [](const PoolTaskInfo&) {});
  for (std::size_t w = 0; w < 3; ++w) EXPECT_EQ(started[w].load(), 1) << w;
}

TEST(Pool, RejectsMalformedInput) {
  const std::vector<double> costs{1.0, 2.0};
  const auto run = [&](const std::vector<std::vector<std::size_t>>& bins,
                       WorkStealingOptions o) {
    run_work_stealing(costs, bins, o, [](const PoolTaskInfo&) {});
  };
  EXPECT_THROW(run({{0, 1}}, opts(0)), Error);         // no workers
  EXPECT_THROW(run({{0}, {1}}, opts(1)), Error);       // more bins than workers
  EXPECT_THROW(run({{0}}, opts(1)), Error);            // task 1 uncovered
  EXPECT_THROW(run({{0, 1, 0}}, opts(1)), Error);      // task 0 seeded twice
  EXPECT_THROW(run({{0, 2}}, opts(1)), Error);         // unknown task id
  EXPECT_THROW(
      run_work_stealing({-1.0, 1.0}, {{0, 1}}, opts(1),
                        [](const PoolTaskInfo&) {}),
      Error);                                          // negative cost
}

TEST(Pool, StatsAccountBusyAndIdlePerWorker) {
  const std::vector<double> costs{1.0, 1.0, 1.0, 1.0};
  const auto stats = run_work_stealing(
      costs, arch::shard_by_cost(costs, 2), opts(2),
      [](const PoolTaskInfo&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      });
  ASSERT_EQ(stats.busy_s.size(), 2u);
  ASSERT_EQ(stats.idle_s.size(), 2u);
  EXPECT_GT(stats.wall_s, 0.0);
  for (std::size_t w = 0; w < 2; ++w) {
    EXPECT_GT(stats.busy_s[w], 0.0) << w;
    EXPECT_GE(stats.idle_s[w], 0.0) << w;
  }
}

// --- fork_join --------------------------------------------------------------

/// Threads of this process, from /proc/self/status (0 where unavailable).
std::size_t process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  return 0;
}

TEST(Pool, ForkJoinRunsEveryIndexExactlyOnce) {
  for (std::size_t workers : {1u, 2u, 4u}) {
    WorkStealingPool pool(workers);
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> runs(n);
    for (auto& r : runs) r.store(0);
    pool.fork_join(n, [&](std::size_t i) { runs[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(runs[i].load(), 1) << "workers=" << workers << " i=" << i;
  }
}

TEST(Pool, ForkJoinHandlesEmptyAndShortLoops) {
  WorkStealingPool pool(4);
  pool.fork_join(0, [](std::size_t) { FAIL() << "no index to run"; });
  for (std::size_t n : {1u, 2u, 3u}) {  // fewer indices than workers
    std::vector<std::atomic<int>> runs(n);
    for (auto& r : runs) r.store(0);
    pool.fork_join(n, [&](std::size_t i) { runs[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(runs[i].load(), 1) << n;
  }
}

TEST(Pool, ForkJoinRethrowsLowestIndexAfterAllIndicesRan) {
  for (std::size_t workers : {1u, 2u, 4u}) {
    WorkStealingPool pool(workers);
    for (int rep = 0; rep < 5; ++rep) {
      std::atomic<int> ran{0};
      try {
        pool.fork_join(64, [&](std::size_t i) {
          ran.fetch_add(1);
          if (i == 50) throw Error("index fifty");
          if (i == 17) throw Error("index seventeen");
        });
        FAIL() << "expected an exception";
      } catch (const Error& e) {
        EXPECT_STREQ(e.what(), "index seventeen");
      }
      EXPECT_EQ(ran.load(), 64) << "workers=" << workers;
    }
  }
}

TEST(Pool, ForkJoinInsideAPoolTaskRunsInline) {
  WorkStealingPool pool(3);
  // Inside a seeded wave's task: every index runs on the task's thread.
  const std::vector<double> costs{1.0, 1.0};
  WorkStealingOptions o = opts(2);
  pool.run(costs, arch::shard_by_cost(costs, 2), o, [&](const PoolTaskInfo&) {
    const auto self = std::this_thread::get_id();
    std::atomic<int> elsewhere{0};
    pool.fork_join(100, [&](std::size_t) {
      if (std::this_thread::get_id() != self) elsewhere.fetch_add(1);
    });
    EXPECT_EQ(elsewhere.load(), 0);
  });
  // Inside another fork-join: the inner loop stays on the outer index's
  // thread instead of opening a second team.
  std::atomic<int> elsewhere{0};
  std::atomic<int> inner_runs{0};
  pool.fork_join(8, [&](std::size_t) {
    const auto self = std::this_thread::get_id();
    pool.fork_join(10, [&](std::size_t) {
      inner_runs.fetch_add(1);
      if (std::this_thread::get_id() != self) elsewhere.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_runs.load(), 80);
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(Pool, ForkJoinBackToBackRoundsNeitherHangNorLeak) {
  WorkStealingPool pool(4);
  const std::size_t threads_before = process_threads();
  std::atomic<std::uint64_t> sum{0};
  const std::size_t rounds = 10000;
  for (std::size_t r = 0; r < rounds; ++r)
    pool.fork_join(8, [&](std::size_t i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), rounds * 36u);
  // Rounds reuse the resident threads; none are spawned per round.  (The
  // count may drop: threads of an earlier test's pool can still be in
  // the middle of exiting when it is first read.)
  EXPECT_LE(process_threads(), threads_before);
}

}  // namespace
}  // namespace hjsvd
