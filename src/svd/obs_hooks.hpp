// Shared observability hooks of the SVD engines (internal detail header).
//
// Every Hestenes-family engine reports the same metric names so runs are
// comparable across engines; all emission sites are at sweep/round
// granularity and guarded by a null check, and none of them touch the
// matrices beyond reads, so results are byte-identical with sinks attached.
// The full name/unit taxonomy is documented in docs/OBSERVABILITY.md.
//
// The per-sweep hook also feeds the live-telemetry watchdog
// (obs::Watchdog::on_sweep) with the off-diagonal Frobenius norm, so every
// engine that reports convergence progress gets stall detection for free.
#pragma once

#include <cstdint>

#include "linalg/kernels.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/numerics.hpp"
#include "obs/trace.hpp"

namespace hjsvd::detail {

/// Per-sweep convergence metrics, appended as series indexed by the 0-based
/// sweep number.  Deterministic across engines and thread counts (the
/// engines are bitwise identical).  This value overload takes measures
/// already computed; the engines call the overload on D below.  The
/// numerics probe, when attached, gets the same off-diagonal mass (it
/// publishes its per-pair aggregates at this sweep granularity).
inline void record_sweep_metrics(obs::MetricsRegistry* metrics,
                                 obs::Watchdog* watchdog,
                                 obs::Watchdog* deadline,
                                 obs::NumericsProbe* numerics,
                                 std::size_t sweep, double offdiag_frob,
                                 double max_rel_offdiag,
                                 std::uint64_t rotations,
                                 std::uint64_t skipped) {
  if (watchdog != nullptr) watchdog->on_sweep(offdiag_frob);
  // A deadline-only poller (ObsContext::deadline) gets its wall-clock check
  // here, once per sweep, so one long decomposition cannot blow past
  // --deadline-s unobserved.  on_sweep already polls an attached watchdog's
  // deadline, so an aliased pointer is not polled twice.
  if (deadline != nullptr && deadline != watchdog) deadline->check_deadline();
  if (numerics != nullptr) numerics->observe_sweep(sweep, offdiag_frob);
  if (metrics == nullptr) return;
  const auto idx = static_cast<double>(sweep);
  metrics->series_append("svd.sweep.offdiag_frobenius", "1", idx,
                         offdiag_frob);
  metrics->series_append("svd.sweep.max_rel_offdiag", "1", idx,
                         max_rel_offdiag);
  metrics->series_append("svd.sweep.rotations", "rotations", idx,
                         static_cast<double>(rotations));
  metrics->series_append("svd.sweep.skipped", "rotations", idx,
                         static_cast<double>(skipped));
}

/// The per-sweep hook on the working matrix D itself (a Matrix, or the
/// engines' padded SquareView): the measures are
/// computed only when a consumer is attached.
template <class Mat>
void record_sweep_metrics(obs::MetricsRegistry* metrics,
                          obs::Watchdog* watchdog, obs::Watchdog* deadline,
                          obs::NumericsProbe* numerics, std::size_t sweep,
                          const Mat& d, std::uint64_t rotations,
                          std::uint64_t skipped) {
  // Poll the deadline here, before the measure computation: callers skip
  // the Gram refresh when no convergence consumer is attached, and the
  // wall-clock check needs no matrix data anyway.
  if (deadline != nullptr && deadline != watchdog) deadline->check_deadline();
  if (metrics == nullptr && watchdog == nullptr && numerics == nullptr) return;
  record_sweep_metrics(metrics, watchdog, /*deadline=*/nullptr, numerics,
                       sweep, offdiag_frobenius(d), max_relative_offdiag(d),
                       rotations, skipped);
}

/// Whole-run summary: problem shape, sweep count, rotation totals.
inline void record_run_metrics(obs::MetricsRegistry* metrics, std::size_t m,
                               std::size_t n, std::size_t sweeps,
                               std::uint64_t rotations, std::uint64_t skipped,
                               bool converged) {
  if (metrics == nullptr) return;
  metrics->gauge_set("svd.rows", "1", static_cast<double>(m));
  metrics->gauge_set("svd.cols", "1", static_cast<double>(n));
  metrics->gauge_set("svd.sweeps", "sweeps", static_cast<double>(sweeps));
  metrics->gauge_set("svd.converged", "bool", converged ? 1.0 : 0.0);
  metrics->counter_add("svd.rotations_applied", "rotations", rotations);
  metrics->counter_add("svd.rotations_skipped", "rotations", skipped);
}

}  // namespace hjsvd::detail
