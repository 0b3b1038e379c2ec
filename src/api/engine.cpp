#include "api/engine.hpp"

#include <algorithm>
#include <string>

#include "api/dispatch.hpp"
#include "arch/multi_engine.hpp"
#include "common/error.hpp"
#include "common/pool.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hjsvd {

EngineInstance::EngineInstance(const EngineConfig& config)
    : threads_(config.threads == 0 ? default_thread_count() : config.threads) {}

EngineInstance::~EngineInstance() = default;

WorkStealingPool& EngineInstance::ensure_pool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<WorkStealingPool>(threads_);
    worker_ws_.reserve(threads_);
    for (std::size_t w = 0; w < threads_; ++w)
      worker_ws_.push_back(std::make_unique<Workspace>());
  }
  return *pool_;
}

SvdResult EngineInstance::decompose(const Matrix& a,
                                    const SvdOptions& options) {
  SvdOptions opts = options;
  if (opts.workspace == nullptr) opts.workspace = &caller_ws_;
  const bool pooled = threads_ > 1 && detail::runs_on_pool(options.method, a);
  return detail::svd_on_pool(a, opts, pooled ? &ensure_pool() : nullptr);
}

std::uint64_t EngineInstance::workspace_reuse_total() const {
  std::uint64_t total = caller_ws_.reuse_total();
  for (const auto& ws : worker_ws_) total += ws->reuse_total();
  return total;
}

std::uint64_t EngineInstance::workspace_alloc_total() const {
  std::uint64_t total = caller_ws_.alloc_total();
  for (const auto& ws : worker_ws_) total += ws->alloc_total();
  return total;
}

std::vector<SvdResult> EngineInstance::decompose_batch(
    const std::vector<Matrix>& batch, const SvdOptions& options,
    SvdBatchStats* stats, std::vector<std::exception_ptr>* item_errors_out) {
  // Validate the whole batch — shape *and* method constraints — before any
  // work starts, so a bad entry cannot leave a half-computed result
  // vector.  Data-dependent failures (non-finite entries) are the engines'
  // to detect; they surface mid-run through the error contract below.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    HJSVD_ENSURE(!batch[i].empty(), "svd_batch: item " + std::to_string(i) +
                                        " is an empty matrix");
    if (options.method == SvdMethod::kTwoSidedJacobi)
      HJSVD_ENSURE(batch[i].rows() == batch[i].cols(),
                   "svd_batch: item " + std::to_string(i) + " (" +
                       std::to_string(batch[i].rows()) + "x" +
                       std::to_string(batch[i].cols()) +
                       ") — two-sided Jacobi requires square matrices");
  }
  if (stats != nullptr) *stats = SvdBatchStats{};
  if (item_errors_out != nullptr) {
    item_errors_out->clear();
    item_errors_out->resize(batch.size());
  }
  std::vector<SvdResult> results(batch.size());
  if (batch.empty()) return results;

  // Per-item sinks are stripped: concurrent workers would interleave their
  // emissions nondeterministically.  The batch layer records its own
  // per-item spans (one timeline per pool worker) and batch.* metrics.
  SvdOptions per_item = options;
  per_item.trace = nullptr;
  per_item.metrics = nullptr;
  per_item.watchdog = nullptr;  // per-item sweep series interleave; only the
                                // deadline is meaningful at batch scope
  // The deadline half of the batch watchdog *is* threaded into every item:
  // the per-sweep hook polls check_deadline() (wall-clock only, no
  // convergence feed), so one long in-flight decomposition cannot overrun
  // --deadline-s unobserved until it finishes.
  per_item.deadline_poller = options.watchdog;
  // The numerics probe stays attached: its aggregates (counters, histogram,
  // watermarks) are order-independent and mutex-protected, so concurrent
  // items feed one probe safely and the batch-level signature is
  // deterministic even though the feeding order is not.
  auto* trace = obs::active(options.trace);
  auto* metrics = obs::active(options.metrics);
  auto* watchdog = obs::active(options.watchdog);

  // Jacobi sweep cost ~ m n^2 (Gram) + n^3 (updates); LPT seeding over
  // that estimate balances mixed-size batches (the multi-engine rule), and
  // work stealing absorbs what the estimate gets wrong (convergence speed
  // is data-dependent).
  std::vector<double> costs(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto m = static_cast<double>(batch[i].rows());
    const auto n = static_cast<double>(batch[i].cols());
    costs[i] = m * n * n + n * n * n;
  }
  const std::size_t requested = threads_;
  // One pool worker per item at most; every item runs single-threaded.
  const std::size_t workers = std::min(requested, batch.size());

  const auto bins = arch::shard_by_cost(costs, workers);

  const double batch_t0_us = trace != nullptr ? trace->now_us() : 0.0;
  std::uint32_t batch_tid = 0;
  if (trace != nullptr)
    batch_tid = trace->register_thread("svd_batch coordinator");
  // Timelines are per pool worker (exactly `workers` of them), written by
  // each worker thread into its own slot from the start hook.
  std::vector<std::uint32_t> worker_tids(workers, 0);

  WorkStealingOptions pool_opts;
  pool_opts.workers = workers;
  if (trace != nullptr)
    pool_opts.worker_start = [&](std::size_t w) {
      worker_tids[w] =
          trace->register_thread("svd_batch worker " + std::to_string(w));
    };

  // Per-item exception slots: single writer each, scanned in index order
  // after the join so the lowest-index failure wins deterministically.
  std::vector<std::exception_ptr> item_errors(batch.size());

  const auto run_item = [&](const PoolTaskInfo& info) {
    const Matrix& a = batch[info.task];
    obs::Span item_span;
    if (trace != nullptr) {
      trace->emit_counter(worker_tids[info.worker], "batch",
                          "batch.queue.occupancy", trace->now_us(),
                          static_cast<double>(info.queued));
      item_span = obs::Span(trace, worker_tids[info.worker], "batch", "item",
                            obs::ArgsBuilder()
                                .add("index", info.task)
                                .add("rows", a.rows())
                                .add("cols", a.cols())
                                .add("stolen", info.stolen)
                                .str());
    }
    try {
      SvdOptions item_opts = per_item;
      // Each pool worker owns a warm arena; the item inherits it so a warm
      // wave's engine runs are allocation-free (workspace_reuse_total).
      item_opts.workspace = worker_ws_[info.worker].get();
      results[info.task] = detail::svd_on_pool(a, item_opts, nullptr);
    } catch (const std::exception& e) {
      item_errors[info.task] = std::make_exception_ptr(
          Error("svd_batch: item " + std::to_string(info.task) + " (" +
                std::to_string(a.rows()) + "x" + std::to_string(a.cols()) +
                "): " + e.what()));
    } catch (...) {
      item_errors[info.task] = std::current_exception();
    }
    if (watchdog != nullptr) watchdog->check_deadline();
  };

  const PoolStats pool = ensure_pool().run(costs, bins, pool_opts, run_item);

  std::size_t failed = 0;
  for (const auto& e : item_errors)
    if (e) ++failed;

  if (trace != nullptr)
    trace->emit_complete(batch_tid, "batch", "svd_batch", batch_t0_us,
                         trace->now_us() - batch_t0_us,
                         obs::ArgsBuilder()
                             .add("items", batch.size())
                             .add("workers", workers)
                             .add("requested_workers", requested)
                             .add("steals", pool.steals)
                             .str());
  if (metrics != nullptr) {
    metrics->counter_add("batch.items", "matrices", batch.size());
    metrics->counter_add("batch.items_ok", "matrices", batch.size() - failed);
    metrics->counter_add("batch.items_failed", "matrices", failed);
    // batch.workers reports the pool workers actually participating — the
    // same number as the "svd_batch worker N" timelines — never the
    // pre-clamp request, so hjsvd_report per-worker tables match reality.
    metrics->gauge_set("batch.workers", "threads",
                       static_cast<double>(workers));
    metrics->gauge_set("batch.workers.requested", "threads",
                       static_cast<double>(requested));
    metrics->gauge_set("batch.wall_s", "s", pool.wall_s);
    metrics->counter_add("batch.steals", "tasks", pool.steals);
    for (double c : costs) metrics->hist_record("batch.item_cost", "flops", c);
    for (std::size_t w = 0; w < workers; ++w) {
      const std::string prefix = "batch.worker." + std::to_string(w);
      metrics->gauge_set(prefix + ".busy_s", "s", pool.busy_s[w]);
      metrics->gauge_set(prefix + ".idle_s", "s", pool.idle_s[w]);
    }
    for (std::size_t k = 0; k < pool.occupancy.size(); ++k)
      metrics->series_append("batch.queue.occupancy", "tasks", k,
                             static_cast<double>(pool.occupancy[k]));
  }
  if (stats != nullptr) {
    stats->items = batch.size();
    stats->workers = pool.workers;
    stats->requested_workers = requested;
    stats->steals = pool.steals;
    stats->items_ok = batch.size() - failed;
    stats->items_failed = failed;
    stats->wall_s = pool.wall_s;
    stats->worker_busy_s = pool.busy_s;
    stats->worker_idle_s = pool.idle_s;
  }
  if (item_errors_out != nullptr) {
    // Serving mode: hand every per-item failure back (index-aligned) and
    // keep the successful results — a poisoned request must not take down
    // the rest of the wave.
    *item_errors_out = std::move(item_errors);
    return results;
  }
  for (const auto& e : item_errors)
    if (e) std::rethrow_exception(e);
  return results;
}

}  // namespace hjsvd
