// The sweep driver of the modified and the plain Hestenes engines (internal
// detail header).  Both run the paper's one schedule: rounds of disjoint
// pairs from sweep_rounds (Fig. 6), at most cfg.max_sweeps sweeps, one
// convergence measure.  An engine supplies only its per-pair step and the
// matrix convergence is measured on; run_sweeps owns the executor, the
// in-order fold of per-pair results, the `sweep` and `finalize` trace
// spans, HestenesStats, the per-sweep and per-run metrics, the tolerance
// stop and the fixed-sweep convergence check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/pool.hpp"
#include "linalg/kernels.hpp"
#include "svd/hestenes.hpp"
#include "svd/obs_hooks.hpp"
#include "svd/ordering.hpp"

namespace hjsvd::detail {

/// What one pair's step leaves for the in-order fold after its round: the
/// pair's pre-rotation squared norms and covariance (the numerics-probe
/// sample) and whether it rotated.
struct PairSlot {
  double norm_ii = 0.0;
  double norm_jj = 0.0;
  double cov = 0.0;
  bool rotated = false;
};

/// The input checks both engines make before any work.
inline void check_sweep_input(const Matrix& a, const HestenesConfig& cfg) {
  HJSVD_ENSURE(a.rows() > 0 && a.cols() > 0, "matrix must be non-empty");
  HJSVD_ENSURE(cfg.max_sweeps > 0, "need at least one sweep");
  HJSVD_ENSURE(all_finite(a), "input matrix must be finite (no NaN/inf)");
}

/// Post-sweep convergence record (HestenesStats::sweeps).
template <class Mat>
SweepRecord make_record(const Mat& d, std::uint64_t rotations,
                        std::uint64_t skipped) {
  SweepRecord rec;
  rec.mean_abs_offdiag = mean_abs_offdiag(d);
  rec.max_rel_offdiag = max_relative_offdiag(d);
  rec.rotations = rotations;
  rec.skipped = skipped;
  return rec;
}

/// The sinks one engine run reports to, resolved once, and the trace
/// timeline its spans go on.
struct RunObs {
  RunObs(const obs::ObsContext& ctx, const char* timeline)
      : trace(obs::active(ctx.trace)),
        metrics(obs::active(ctx.metrics)),
        watchdog(obs::active(ctx.watchdog)),
        deadline(obs::active(ctx.deadline)),
        numerics(obs::active(ctx.numerics)),
        tid(trace != nullptr ? trace->register_thread(timeline) : 0) {}

  /// An "svd" span on the run's timeline; inert without a trace sink.
  obs::Span span(const char* name, std::string args = "{}") const {
    if (trace == nullptr) return {};
    return obs::Span(trace, tid, "svd", name, std::move(args));
  }

  obs::TraceRecorder* trace;
  obs::MetricsRegistry* metrics;
  obs::Watchdog* watchdog;
  obs::Watchdog* deadline;
  obs::NumericsProbe* numerics;
  std::uint32_t tid;
};

/// Runs the sweeps of one decomposition of `a`, then `finalize(result)`.
/// - `step(i, j, slot)` orthogonalizes columns i < j and fills `slot`.  With
///   a non-null `pool` each round is one fork-join, so the step must then
///   touch only its own pair's data.
/// - `measure(wanted)` returns the matrix convergence is measured on; when
///   `wanted` is false nothing reads it, and an empty matrix will do.
/// - `finalize(result)` fills the singular values and vectors, after the
///   last `measure`.
/// Per-pair results are folded in pair order after each round, so stats,
/// metrics and probe samples do not depend on the executor.
template <class Step, class Measure, class Finalize>
SvdResult run_sweeps(const Matrix& a, const HestenesConfig& cfg,
                     HestenesStats* stats, const RunObs& run,
                     WorkStealingPool* pool, Step&& step, Measure&& measure,
                     Finalize&& finalize) {
  const auto rounds = sweep_rounds(cfg.ordering, a.cols());
  std::vector<PairSlot> slots;
  SvdResult result;
  if (stats != nullptr) *stats = HestenesStats{};
  const bool measure_wanted =
      (stats != nullptr && cfg.track_convergence) || run.metrics != nullptr ||
      run.watchdog != nullptr || run.numerics != nullptr ||
      cfg.tolerance > 0.0;

  std::uint64_t total_rotations = 0, total_skipped = 0;
  std::uint64_t pair_seq = 0;  // numerics-probe sampling index
  for (std::size_t sweep = 0; sweep < cfg.max_sweeps; ++sweep) {
    obs::Span sweep_span;
    if (run.trace != nullptr)
      sweep_span =
          run.span("sweep", obs::ArgsBuilder().add("sweep", sweep).str());
    std::uint64_t rotations = 0, skipped = 0;
    for (const auto& round : rounds) {
      slots.assign(round.size(), PairSlot{});
      const auto visit = [&](std::size_t p) {
        step(round[p].first, round[p].second, slots[p]);
      };
      if (pool != nullptr) {
        pool->fork_join(round.size(), visit);
      } else {
        for (std::size_t p = 0; p < round.size(); ++p) visit(p);
      }
      for (const auto& slot : slots) {
        if (run.numerics != nullptr && run.numerics->want(pair_seq))
          run.numerics->observe_pair(slot.norm_ii, slot.norm_jj, slot.cov);
        ++pair_seq;
        ++(slot.rotated ? rotations : skipped);
      }
    }
    ++result.sweeps;
    total_rotations += rotations;
    total_skipped += skipped;
    const auto d = measure(measure_wanted);
    if (stats != nullptr) {
      stats->total_rotations += rotations;
      stats->total_skipped += skipped;
      if (cfg.track_convergence)
        stats->sweeps.push_back(make_record(d, rotations, skipped));
    }
    record_sweep_metrics(run.metrics, run.watchdog, run.deadline, run.numerics,
                         sweep, d, rotations, skipped);
    if (cfg.tolerance > 0.0 && max_relative_offdiag(d) < cfg.tolerance) {
      result.converged = true;
      break;
    }
  }
  if (cfg.tolerance == 0.0) {
    // Fixed-sweep mode: report convergence by the library's default check.
    result.converged = max_relative_offdiag(measure(true)) < 1e-10;
  }

  obs::Span finalize_span = run.span("finalize");
  finalize(result);
  finalize_span.end();
  if (run.numerics != nullptr) run.numerics->observe_finalize(a, result);
  record_run_metrics(run.metrics, a.rows(), a.cols(), result.sweeps,
                     total_rotations, total_skipped, result.converged);
  return result;
}

}  // namespace hjsvd::detail
