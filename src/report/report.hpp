// Offline run-report analyzer (`hjsvd.report.v2`).
//
// Ingests the observability artifacts a run recorded — an
// hjsvd.trace.v1/v2/v3 trace and an hjsvd.metrics.v1 metrics document — and
// distills them into a typed RunReport: per-phase wall-clock breakdown,
// parameter-FIFO and batch-queue occupancy statistics, the convergence
// trajectory, and live-telemetry verdicts (flight-recorder drops, watchdog
// flags).  The report serializes deterministically (fixed field
// order, round-trip doubles) so golden-file tests can diff it byte-for-byte,
// and two serialized reports can be compared for performance regressions
// (`compare_reports`, driving hjsvd_report --compare's exit code 3).
//
// Layering: everything here is offline post-processing.  Engines never link
// this library; it reads what obs/ recorded, after the run is over.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "report/json.hpp"

namespace hjsvd::report {

/// Input document with a missing or unsupported "schema" tag, or one whose
/// shape contradicts its tag.  hjsvd_report maps this to exit code 2
/// (usage), distinct from I/O or internal errors (exit 1).
class SchemaError : public Error {
 public:
  explicit SchemaError(const std::string& what) : Error(what) {}
};

/// Wall-clock total of all trace spans sharing one (category, name), on the
/// software process.  Spans nest (a "sweep" contains its "update" children),
/// so fractions are per-name shares of the wall clock, not a partition.
struct PhaseStat {
  std::string cat;
  std::string name;
  double total_s = 0.0;
  std::uint64_t count = 0;
  double frac_of_wall = 0.0;
};

/// Busy/idle split of one svd_batch pool worker (work-stealing batch
/// scheduler only).
struct BatchWorkerStat {
  std::string name;  // "worker.0", ...
  double busy_s = 0.0;
  double idle_s = 0.0;
};

/// Summary statistics of an occupancy series.
struct SeriesStats {
  std::uint64_t samples = 0;
  double mean = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

/// One point of the unified convergence trajectory (svd.sweep.* series; all
/// engines record the same names — see src/svd/obs_hooks.hpp).
struct ConvergencePoint {
  std::uint64_t sweep = 0;
  double offdiag_frobenius = 0.0;
  double max_rel_offdiag = 0.0;
  std::uint64_t rotations = 0;
  std::uint64_t skipped = 0;
};

/// The analyzed run.  `has_*` flags mark optional sections: software-only
/// runs have no sim section, single runs no batch section, and so on.
struct RunReport {
  // Run summary (svd.* metrics).
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t sweeps = 0;
  bool converged = false;
  std::uint64_t rotations_applied = 0;
  std::uint64_t rotations_skipped = 0;
  double wall_s = 0.0;  // extent of the software spans

  std::vector<PhaseStat> phases;  // sorted by descending total_s

  // Accelerator-simulator section.
  bool has_sim = false;
  double sim_fifo_depth_groups = 0.0;
  double sim_fifo_high_water_groups = 0.0;
  double sim_fifo_high_water_rotations = 0.0;  // calibrated bound
  SeriesStats sim_fifo_occupancy;              // sim.param_fifo.occupancy
  double sim_update_utilization = 0.0;

  // Batch-scheduler section (svd_batch's work-stealing pool; batch.*
  // metrics).  Unlike sim this member is omitted from the JSON entirely
  // when absent, so pre-batch reports re-serialize byte-for-byte.
  bool has_batch = false;
  std::uint64_t batch_items = 0;
  std::uint64_t batch_items_ok = 0;
  std::uint64_t batch_items_failed = 0;
  std::uint64_t batch_workers = 0;            // pool width actually spawned
  std::uint64_t batch_workers_requested = 0;  // pre-clamp thread budget
  std::uint64_t batch_steals = 0;
  double batch_wall_s = 0.0;
  double batch_idle_frac = 0.0;  // sum(idle_s) / (wall_s * workers)
  std::vector<BatchWorkerStat> batch_worker_stats;  // by worker index
  SeriesStats batch_queue_occupancy;  // batch.queue.occupancy series

  // Live-telemetry section (flight-recorder trace rings + convergence
  // watchdog; src/obs/live.hpp).  Present when the trace is an
  // hjsvd.trace.v3 flight-recorder dump and/or the metrics carry
  // obs.watchdog.* verdicts.  Like batch, the member is omitted from
  // the JSON entirely when absent, so pre-live reports re-serialize
  // byte-for-byte.  compare_reports treats these as *invariants*, not
  // timings: a candidate flipping a watchdog verdict to true, or starting
  // to drop ring events when the baseline dropped none, is a regression.
  bool has_live = false;
  bool live_ring_enabled = false;  // trace came from a bounded ring
  std::uint64_t live_ring_capacity_events = 0;  // per-thread event cap
  std::uint64_t live_dropped_events_total = 0;  // ring evictions, all threads
  bool live_watchdog_present = false;  // obs.watchdog.* metrics seen
  bool live_watchdog_stalled = false;  // sticky stall verdict
  bool live_watchdog_deadline_exceeded = false;  // sticky deadline verdict
  double live_watchdog_deadline_s = 0.0;  // configured budget (0 = none)
  std::uint64_t live_watchdog_stall_sweeps = 0;   // configured stall window
  std::uint64_t live_watchdog_stall_events = 0;   // distinct stall episodes
  std::uint64_t live_watchdog_sweeps_observed = 0;
  std::uint64_t live_watchdog_deadline_overruns = 0;
  std::uint64_t live_dumps = 0;  // mid-run dumps serviced (obs.dump.count)

  // Numerical-health section (sampled accuracy probes; src/obs/numerics.hpp,
  // svd.num.* metrics).  Present when the run recorded probe samples.  Like
  // batch/live, the member is omitted from the JSON entirely when
  // absent, so pre-probe reports re-serialize byte-for-byte.
  // compare_reports gates the accuracy leaves (backward error, orthogonality
  // drift — higher is worse) and the two verdicts (false → true flips are
  // regressions) exactly as it gates timings.
  bool has_numerics = false;
  std::uint64_t num_samples = 0;            // sampled rotation pairs
  std::uint64_t num_stride = 0;             // configured sampling stride
  std::uint64_t num_nonfinite_events = 0;   // non-finite pair inputs seen
  std::uint64_t num_cancellation_events = 0;
  std::uint64_t num_divergence_events = 0;  // off-diagonal mass upticks
  double num_cancellation_frac = 0.0;       // events / finite samples
  double num_cancellation_worst_rel = 1.0;  // smallest |djj-dii|/max seen
  double num_tiny_angle_frac = 0.0;         // near-converged pair share
  double num_near_pi4_frac = 0.0;           // ill-separated pair share
  std::vector<std::uint64_t> num_angle_hist;  // 8 buckets over [0, pi/4]
  double num_cond_estimate = 1.0;           // sqrt(max/min column norm^2)
  double num_cond_sigma = -1.0;             // sigma_max/sigma_min (-1: n/a)
  double num_norm_exp_min = 0.0;            // column-norm exponent watermarks
  double num_norm_exp_max = 0.0;
  bool num_has_norm_exp = false;
  double num_offdiag_decrease_ratio = -1.0;  // last/first sweep mass (-1: n/a)
  double num_orthogonality_drift = -1.0;     // ||V^T V - I||_max (-1: n/a)
  double num_backward_error = -1.0;  // ||A - U S V^T||_F / ||A||_F (-1: n/a)
  bool num_watchdog_divergence = false;      // sticky verdicts (obs.watchdog.*)
  bool num_watchdog_orthogonality = false;

  // Serving section (hjsvd_serve daemon sessions; serve.* metrics from
  // src/serve/server.cpp).  Present when the metrics document came from a
  // serve run.  Like batch/live/numerics, the member is omitted from
  // the JSON entirely when absent, so offline-run reports re-serialize
  // byte-for-byte.  Invariants the serve validator enforces:
  //   requests_total == admitted_total + rejected_overload +
  //                     rejected_bad_request
  //   replies_ok + replies_error == requests_total
  bool has_serve = false;
  std::uint64_t serve_requests_total = 0;        // every frame submitted
  std::uint64_t serve_admitted_total = 0;        // passed admission control
  std::uint64_t serve_rejected_overload = 0;     // bounded-queue rejections
  std::uint64_t serve_rejected_bad_request = 0;  // malformed/duplicate frames
  std::uint64_t serve_expired_deadline = 0;      // expired while queued
  std::uint64_t serve_replies_ok = 0;
  std::uint64_t serve_replies_error = 0;
  std::uint64_t serve_waves_total = 0;           // dispatch waves executed
  std::uint64_t serve_workspace_reuse_total = 0;  // warm arena hits
  std::uint64_t serve_workspace_alloc_total = 0;  // cold arena allocations
  double serve_latency_p50_ms = 0.0;  // admitted-request latency percentiles
  double serve_latency_p95_ms = 0.0;
  SeriesStats serve_queue_depth;      // serve.queue.depth series

  std::vector<ConvergencePoint> convergence;
};

/// Analyzes parsed trace + metrics documents.  Throws SchemaError when
/// either document's "schema" tag is missing or unsupported (trace:
/// hjsvd.trace.v1, v2, or v3; metrics: hjsvd.metrics.v1) or when the tagged
/// shape is missing ("traceEvents" / "metrics" arrays).
RunReport analyze_run(const JsonValue& trace_doc, const JsonValue& metrics_doc);

/// Serializes a report as the hjsvd.report.v2 JSON document.  Deterministic:
/// fixed member order, doubles at round-trip precision.
std::string report_json(const RunReport& report);

/// Renders the human-readable view: run summary, phase table, occupancy and
/// convergence tables (common/table.hpp).
std::string report_table(const RunReport& report);

/// Parses a serialized hjsvd.report.v2 document back into a RunReport; a
/// v1 document also parses (its pipeline and cross_checks members, which
/// v2 dropped, are ignored).  Throws SchemaError on a missing/foreign
/// schema tag.
RunReport report_from_json(const JsonValue& doc);

/// Regression thresholds for compare_reports; defaults match
/// hjsvd_report --compare's flag defaults.
struct CompareThresholds {
  double max_wall_regress_frac = 0.10;     // new wall ≤ old * (1 + frac)
  std::uint64_t max_sweep_increase = 0;    // convergence must not degrade
  double max_rotation_increase_frac = 0.05;
  // Accuracy leaves (numerics section): higher is worse.  A candidate may
  // exceed the baseline by the relative fraction, or by the absolute noise
  // floor when both values sit at rounding level (a 3e-17 → 5e-17 "50%
  // regression" is noise, not a finding).
  double max_accuracy_regress_frac = 0.50;
  double accuracy_noise_floor = 1e-12;
};

struct CompareResult {
  bool regressed = false;
  std::vector<std::string> findings;  // human-readable, one per check
};

/// Diffs two reports of the *same* workload.  Every check appends a finding
/// line; checks that exceed their threshold set `regressed`.
CompareResult compare_reports(const RunReport& baseline,
                              const RunReport& candidate,
                              const CompareThresholds& thresholds);

}  // namespace hjsvd::report
