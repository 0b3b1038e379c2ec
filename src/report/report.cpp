#include "report/report.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <utility>

#include "common/table.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hjsvd::report {
namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

const char* json_bool(bool v) { return v ? "true" : "false"; }

/// Nearest-rank percentile of an unsorted sample copy (matches the
/// histogram summarization in obs/metrics.cpp).
double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  return samples[std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1)];
}

SeriesStats series_stats(const std::vector<double>& values) {
  SeriesStats out;
  out.samples = values.size();
  if (values.empty()) return out;
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
    out.max = std::max(out.max, v);
  }
  out.mean = sum / static_cast<double>(values.size());
  out.p95 = percentile(values, 95);
  return out;
}

/// Indexed view over an hjsvd.metrics.v1 document's "metrics" array.
class MetricsView {
 public:
  explicit MetricsView(const JsonValue& doc) {
    const std::string schema = doc.string_or("schema");
    if (schema != obs::kMetricsSchema)
      throw SchemaError("metrics document has schema '" + schema +
                        "', expected '" + obs::kMetricsSchema + "'");
    const JsonValue* list = doc.find("metrics");
    if (list == nullptr || !list->is_array())
      throw SchemaError("metrics document has no \"metrics\" array");
    for (const JsonValue& m : list->as_array())
      by_name_.emplace(m.string_or("name"), &m);
  }

  /// Gauge or counter value; `fallback` when absent or of another type.
  double value_or(std::string_view name, double fallback) const {
    const JsonValue* m = lookup(name);
    if (m == nullptr) return fallback;
    const std::string type = m->string_or("type");
    if (type != "gauge" && type != "counter") return fallback;
    return m->number_or("value", fallback);
  }

  bool has(std::string_view name) const { return lookup(name) != nullptr; }

  /// Series values (the y column), empty when absent.
  std::vector<double> series_values(std::string_view name) const {
    std::vector<double> out;
    const JsonValue* m = lookup(name);
    if (m == nullptr || m->string_or("type") != "series") return out;
    const JsonValue* points = m->find("points");
    if (points == nullptr || !points->is_array()) return out;
    for (const JsonValue& p : points->as_array()) {
      const auto& pair = p.as_array();
      if (pair.size() == 2) out.push_back(pair[1].as_number());
    }
    return out;
  }

  /// Full (index, value) series points.
  std::vector<std::pair<double, double>> series_points(
      std::string_view name) const {
    std::vector<std::pair<double, double>> out;
    const JsonValue* m = lookup(name);
    if (m == nullptr || m->string_or("type") != "series") return out;
    const JsonValue* points = m->find("points");
    if (points == nullptr || !points->is_array()) return out;
    for (const JsonValue& p : points->as_array()) {
      const auto& pair = p.as_array();
      if (pair.size() == 2)
        out.emplace_back(pair[0].as_number(), pair[1].as_number());
    }
    return out;
  }

 private:
  const JsonValue* lookup(std::string_view name) const {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : it->second;
  }

  std::map<std::string, const JsonValue*, std::less<>> by_name_;
};

void check_trace_schema(const JsonValue& trace_doc) {
  const std::string schema = trace_doc.string_or("schema");
  if (schema != "hjsvd.trace.v1" && schema != "hjsvd.trace.v2" &&
      schema != "hjsvd.trace.v3")
    throw SchemaError("trace document has schema '" + schema +
                      "', expected hjsvd.trace.v1, v2, or v3");
  const JsonValue* events = trace_doc.find("traceEvents");
  if (events == nullptr || !events->is_array())
    throw SchemaError("trace document has no \"traceEvents\" array");
}

void aggregate_phases(const JsonValue& trace_doc, RunReport* report) {
  const JsonValue* other = trace_doc.find("otherData");
  const int software_pid =
      other == nullptr
          ? obs::kSoftwarePid
          : static_cast<int>(other->number_or("software_pid",
                                              obs::kSoftwarePid));
  std::map<std::pair<std::string, std::string>, PhaseStat> by_key;
  double min_start_us = 0.0, max_end_us = 0.0;
  bool any_span = false;
  for (const JsonValue& e : trace_doc.at("traceEvents").as_array()) {
    if (e.string_or("ph") != "X") continue;
    if (static_cast<int>(e.number_or("pid", -1)) != software_pid) continue;
    const double ts = e.number_or("ts", 0.0);
    const double dur = e.number_or("dur", 0.0);
    if (!any_span || ts < min_start_us) min_start_us = ts;
    if (!any_span || ts + dur > max_end_us) max_end_us = ts + dur;
    any_span = true;
    const std::pair<std::string, std::string> key{e.string_or("cat"),
                                                  e.string_or("name")};
    PhaseStat& stat = by_key[key];
    stat.cat = key.first;
    stat.name = key.second;
    stat.total_s += dur * 1e-6;
    ++stat.count;
  }
  if (report->wall_s <= 0.0 && any_span)
    report->wall_s = (max_end_us - min_start_us) * 1e-6;
  for (auto& [key, stat] : by_key) {
    if (report->wall_s > 0.0) stat.frac_of_wall = stat.total_s / report->wall_s;
    report->phases.push_back(std::move(stat));
  }
  std::sort(report->phases.begin(), report->phases.end(),
            [](const PhaseStat& a, const PhaseStat& b) {
              if (a.total_s != b.total_s) return a.total_s > b.total_s;
              return std::tie(a.cat, a.name) < std::tie(b.cat, b.name);
            });
}

void fill_sim(const MetricsView& metrics, RunReport* report) {
  if (!metrics.has("sim.param_fifo.depth")) return;
  report->has_sim = true;
  report->sim_fifo_depth_groups = metrics.value_or("sim.param_fifo.depth", 0.0);
  report->sim_fifo_high_water_groups =
      metrics.value_or("sim.param_fifo.high_water", 0.0);
  report->sim_fifo_high_water_rotations =
      metrics.value_or("sim.param_fifo.high_water_rotations", 0.0);
  report->sim_fifo_occupancy =
      series_stats(metrics.series_values("sim.param_fifo.occupancy"));
  report->sim_update_utilization =
      metrics.value_or("sim.update_utilization", 0.0);
}

void fill_batch(const MetricsView& metrics, RunReport* report) {
  if (!metrics.has("batch.items")) return;
  report->has_batch = true;
  const auto u64 = [&](std::string_view name) {
    return static_cast<std::uint64_t>(metrics.value_or(name, 0.0));
  };
  report->batch_items = u64("batch.items");
  report->batch_items_ok = u64("batch.items_ok");
  report->batch_items_failed = u64("batch.items_failed");
  report->batch_workers = u64("batch.workers");
  report->batch_workers_requested = u64("batch.workers.requested");
  report->batch_steals = u64("batch.steals");
  report->batch_wall_s = metrics.value_or("batch.wall_s", 0.0);
  double idle_sum = 0.0;
  for (std::size_t w = 0;; ++w) {
    const std::string prefix = "batch.worker." + std::to_string(w) + ".";
    if (!metrics.has(prefix + "busy_s")) break;
    BatchWorkerStat stat;
    stat.name = "worker." + std::to_string(w);
    stat.busy_s = metrics.value_or(prefix + "busy_s", 0.0);
    stat.idle_s = metrics.value_or(prefix + "idle_s", 0.0);
    idle_sum += stat.idle_s;
    report->batch_worker_stats.push_back(std::move(stat));
  }
  if (report->batch_wall_s > 0.0 && !report->batch_worker_stats.empty())
    report->batch_idle_frac =
        idle_sum /
        (report->batch_wall_s *
         static_cast<double>(report->batch_worker_stats.size()));
  report->batch_queue_occupancy =
      series_stats(metrics.series_values("batch.queue.occupancy"));
}

void fill_live(const JsonValue& trace_doc, const MetricsView& metrics,
               RunReport* report) {
  const JsonValue* other = trace_doc.find("otherData");
  const JsonValue* fr =
      other == nullptr ? nullptr : other->find("flight_recorder");
  const bool ring = fr != nullptr && fr->as_bool();
  const bool watchdog = metrics.has("obs.watchdog.stalled");
  if (!ring && !watchdog) return;
  report->has_live = true;
  report->live_ring_enabled = ring;
  if (ring) {
    report->live_ring_capacity_events = static_cast<std::uint64_t>(
        other->number_or("ring_capacity_events", 0.0));
    report->live_dropped_events_total = static_cast<std::uint64_t>(
        other->number_or("dropped_events_total", 0.0));
  }
  report->live_watchdog_present = watchdog;
  if (watchdog) {
    report->live_watchdog_stalled =
        metrics.value_or("obs.watchdog.stalled", 0.0) != 0.0;
    report->live_watchdog_deadline_exceeded =
        metrics.value_or("obs.watchdog.deadline_exceeded", 0.0) != 0.0;
    report->live_watchdog_deadline_s =
        metrics.value_or("obs.watchdog.deadline_s", 0.0);
    const auto u64 = [&](std::string_view name) {
      return static_cast<std::uint64_t>(metrics.value_or(name, 0.0));
    };
    report->live_watchdog_stall_sweeps = u64("obs.watchdog.stall_sweeps");
    report->live_watchdog_stall_events = u64("obs.watchdog.stall_events");
    report->live_watchdog_sweeps_observed =
        u64("obs.watchdog.sweeps_observed");
    report->live_watchdog_deadline_overruns =
        u64("obs.watchdog.deadline_overruns");
  }
  report->live_dumps =
      static_cast<std::uint64_t>(metrics.value_or("obs.dump.count", 0.0));
}

void fill_numerics(const MetricsView& metrics, RunReport* report) {
  if (!metrics.has("svd.num.samples")) return;
  report->has_numerics = true;
  const auto u64 = [&](std::string_view name) {
    return static_cast<std::uint64_t>(metrics.value_or(name, 0.0));
  };
  report->num_samples = u64("svd.num.samples");
  report->num_stride = u64("svd.num.stride");
  report->num_nonfinite_events = u64("svd.num.nonfinite.events");
  report->num_cancellation_events = u64("svd.num.cancellation.events");
  report->num_divergence_events = u64("svd.num.divergence.events");
  report->num_cancellation_frac =
      metrics.value_or("svd.num.cancellation.frac", 0.0);
  report->num_cancellation_worst_rel =
      metrics.value_or("svd.num.cancellation.worst_rel", 1.0);
  report->num_tiny_angle_frac = metrics.value_or("svd.num.angle.tiny_frac", 0.0);
  report->num_near_pi4_frac =
      metrics.value_or("svd.num.angle.near_pi4_frac", 0.0);
  for (std::size_t b = 0;; ++b) {
    const std::string name = "svd.num.angle.hist." + std::to_string(b);
    if (!metrics.has(name)) break;
    report->num_angle_hist.push_back(u64(name));
  }
  report->num_cond_estimate = metrics.value_or("svd.num.cond.estimate", 1.0);
  report->num_cond_sigma = metrics.value_or("svd.num.cond.sigma", -1.0);
  report->num_has_norm_exp = metrics.has("svd.num.norm.exp_min");
  if (report->num_has_norm_exp) {
    report->num_norm_exp_min = metrics.value_or("svd.num.norm.exp_min", 0.0);
    report->num_norm_exp_max = metrics.value_or("svd.num.norm.exp_max", 0.0);
  }
  // Off-diagonal decrease ratio: derived offline from the per-sweep series
  // every engine already records, so the probe carries no duplicate state.
  const auto frob = metrics.series_values("svd.sweep.offdiag_frobenius");
  if (frob.size() >= 2 && frob.front() > 0.0)
    report->num_offdiag_decrease_ratio = frob.back() / frob.front();
  report->num_orthogonality_drift =
      metrics.value_or("svd.num.finalize.v_orthogonality_drift", -1.0);
  report->num_backward_error =
      metrics.value_or("svd.num.finalize.backward_error", -1.0);
  report->num_watchdog_divergence =
      metrics.value_or("obs.watchdog.divergence", 0.0) != 0.0;
  report->num_watchdog_orthogonality =
      metrics.value_or("obs.watchdog.orthogonality", 0.0) != 0.0;
}

void fill_serve(const MetricsView& metrics, RunReport* report) {
  if (!metrics.has("serve.requests_total")) return;
  report->has_serve = true;
  const auto u64 = [&](std::string_view name) {
    return static_cast<std::uint64_t>(metrics.value_or(name, 0.0));
  };
  report->serve_requests_total = u64("serve.requests_total");
  report->serve_admitted_total = u64("serve.admitted_total");
  report->serve_rejected_overload = u64("serve.rejected.overload");
  report->serve_rejected_bad_request = u64("serve.rejected.bad_request");
  report->serve_expired_deadline = u64("serve.expired.deadline");
  report->serve_replies_ok = u64("serve.replies_ok");
  report->serve_replies_error = u64("serve.replies_error");
  report->serve_waves_total = u64("serve.waves_total");
  report->serve_workspace_reuse_total = u64("serve.workspace.reuse_total");
  report->serve_workspace_alloc_total = u64("serve.workspace.alloc_total");
  report->serve_latency_p50_ms = metrics.value_or("serve.latency_p50_ms", 0.0);
  report->serve_latency_p95_ms = metrics.value_or("serve.latency_p95_ms", 0.0);
  report->serve_queue_depth =
      series_stats(metrics.series_values("serve.queue.depth"));
}

void fill_convergence(const MetricsView& metrics, RunReport* report) {
  const auto frob = metrics.series_points("svd.sweep.offdiag_frobenius");
  const auto rel = metrics.series_points("svd.sweep.max_rel_offdiag");
  const auto rot = metrics.series_points("svd.sweep.rotations");
  const auto skip = metrics.series_points("svd.sweep.skipped");
  for (std::size_t i = 0; i < frob.size(); ++i) {
    ConvergencePoint p;
    p.sweep = static_cast<std::uint64_t>(frob[i].first);
    p.offdiag_frobenius = frob[i].second;
    if (i < rel.size()) p.max_rel_offdiag = rel[i].second;
    if (i < rot.size()) p.rotations = static_cast<std::uint64_t>(rot[i].second);
    if (i < skip.size()) p.skipped = static_cast<std::uint64_t>(skip[i].second);
    report->convergence.push_back(p);
  }
}

void append_series_stats(std::ostringstream& os, const SeriesStats& s) {
  os << "{\"samples\": " << s.samples << ", \"mean\": " << json_number(s.mean)
     << ", \"p95\": " << json_number(s.p95)
     << ", \"max\": " << json_number(s.max) << '}';
}

SeriesStats series_stats_from_json(const JsonValue& v) {
  SeriesStats out;
  out.samples = static_cast<std::uint64_t>(v.number_or("samples", 0.0));
  out.mean = v.number_or("mean", 0.0);
  out.p95 = v.number_or("p95", 0.0);
  out.max = v.number_or("max", 0.0);
  return out;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string pct(double frac) { return format_fixed(frac * 100.0, 1) + "%"; }

}  // namespace

RunReport analyze_run(const JsonValue& trace_doc,
                      const JsonValue& metrics_doc) {
  check_trace_schema(trace_doc);
  const MetricsView metrics(metrics_doc);
  RunReport report;
  report.rows = static_cast<std::uint64_t>(metrics.value_or("svd.rows", 0.0));
  report.cols = static_cast<std::uint64_t>(metrics.value_or("svd.cols", 0.0));
  report.sweeps =
      static_cast<std::uint64_t>(metrics.value_or("svd.sweeps", 0.0));
  report.converged = metrics.value_or("svd.converged", 0.0) != 0.0;
  report.rotations_applied =
      static_cast<std::uint64_t>(metrics.value_or("svd.rotations_applied", 0.0));
  report.rotations_skipped =
      static_cast<std::uint64_t>(metrics.value_or("svd.rotations_skipped", 0.0));
  aggregate_phases(trace_doc, &report);
  fill_sim(metrics, &report);
  fill_batch(metrics, &report);
  fill_live(trace_doc, metrics, &report);
  fill_numerics(metrics, &report);
  fill_serve(metrics, &report);
  fill_convergence(metrics, &report);
  return report;
}

std::string report_json(const RunReport& r) {
  std::ostringstream os;
  os << "{\n\"schema\": \"" << obs::kReportSchema << "\",\n";
  os << "\"run\": {\"rows\": " << r.rows << ", \"cols\": " << r.cols
     << ", \"sweeps\": " << r.sweeps
     << ", \"converged\": " << json_bool(r.converged)
     << ", \"rotations_applied\": " << r.rotations_applied
     << ", \"rotations_skipped\": " << r.rotations_skipped
     << ", \"wall_s\": " << json_number(r.wall_s) << "},\n";
  os << "\"phases\": [";
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    const PhaseStat& p = r.phases[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"cat\": " << quoted(p.cat)
       << ", \"name\": " << quoted(p.name)
       << ", \"total_s\": " << json_number(p.total_s)
       << ", \"count\": " << p.count
       << ", \"frac_of_wall\": " << json_number(p.frac_of_wall) << '}';
  }
  os << "\n],\n";
  if (r.has_sim) {
    os << "\"sim\": {\"param_fifo_depth_groups\": "
       << json_number(r.sim_fifo_depth_groups)
       << ", \"param_fifo_high_water_groups\": "
       << json_number(r.sim_fifo_high_water_groups)
       << ", \"param_fifo_high_water_rotations\": "
       << json_number(r.sim_fifo_high_water_rotations)
       << ", \"param_fifo_occupancy\": ";
    append_series_stats(os, r.sim_fifo_occupancy);
    os << ", \"update_utilization\": "
       << json_number(r.sim_update_utilization) << "},\n";
  } else {
    os << "\"sim\": null,\n";
  }
  // The batch member is omitted entirely when absent (no "batch": null):
  // reports predating the batch scheduler must re-serialize byte-for-byte.
  if (r.has_batch) {
    os << "\"batch\": {\"items\": " << r.batch_items
       << ", \"items_ok\": " << r.batch_items_ok
       << ", \"items_failed\": " << r.batch_items_failed
       << ", \"workers\": " << r.batch_workers
       << ", \"workers_requested\": " << r.batch_workers_requested
       << ", \"steals\": " << r.batch_steals
       << ", \"wall_s\": " << json_number(r.batch_wall_s)
       << ", \"idle_frac\": " << json_number(r.batch_idle_frac)
       << ", \"worker_threads\": [";
    for (std::size_t i = 0; i < r.batch_worker_stats.size(); ++i) {
      const BatchWorkerStat& w = r.batch_worker_stats[i];
      os << (i == 0 ? "\n" : ",\n") << "  {\"name\": " << quoted(w.name)
         << ", \"busy_s\": " << json_number(w.busy_s)
         << ", \"idle_s\": " << json_number(w.idle_s) << '}';
    }
    os << "\n], \"queue_occupancy\": ";
    append_series_stats(os, r.batch_queue_occupancy);
    os << "},\n";
  }
  // Like batch, the live member is omitted entirely when absent.
  if (r.has_live) {
    os << "\"live\": {\"ring_enabled\": " << json_bool(r.live_ring_enabled)
       << ", \"ring_capacity_events\": " << r.live_ring_capacity_events
       << ", \"dropped_events_total\": " << r.live_dropped_events_total
       << ", \"watchdog_present\": " << json_bool(r.live_watchdog_present)
       << ", \"watchdog_stalled\": " << json_bool(r.live_watchdog_stalled)
       << ", \"watchdog_deadline_exceeded\": "
       << json_bool(r.live_watchdog_deadline_exceeded)
       << ", \"watchdog_deadline_s\": "
       << json_number(r.live_watchdog_deadline_s)
       << ", \"watchdog_stall_sweeps\": " << r.live_watchdog_stall_sweeps
       << ", \"watchdog_stall_events\": " << r.live_watchdog_stall_events
       << ", \"watchdog_sweeps_observed\": "
       << r.live_watchdog_sweeps_observed
       << ", \"watchdog_deadline_overruns\": "
       << r.live_watchdog_deadline_overruns
       << ", \"dumps\": " << r.live_dumps << "},\n";
  }
  // Like batch/live, the numerics member is omitted entirely when
  // absent.
  if (r.has_numerics) {
    os << "\"numerics\": {\"samples\": " << r.num_samples
       << ", \"stride\": " << r.num_stride
       << ", \"nonfinite_events\": " << r.num_nonfinite_events
       << ", \"cancellation_events\": " << r.num_cancellation_events
       << ", \"divergence_events\": " << r.num_divergence_events
       << ", \"cancellation_frac\": " << json_number(r.num_cancellation_frac)
       << ", \"cancellation_worst_rel\": "
       << json_number(r.num_cancellation_worst_rel)
       << ", \"tiny_angle_frac\": " << json_number(r.num_tiny_angle_frac)
       << ", \"near_pi4_frac\": " << json_number(r.num_near_pi4_frac)
       << ", \"angle_hist\": [";
    for (std::size_t b = 0; b < r.num_angle_hist.size(); ++b)
      os << (b == 0 ? "" : ", ") << r.num_angle_hist[b];
    os << "], \"cond_estimate\": " << json_number(r.num_cond_estimate)
       << ", \"cond_sigma\": " << json_number(r.num_cond_sigma);
    if (r.num_has_norm_exp) {
      os << ", \"norm_exp_min\": " << json_number(r.num_norm_exp_min)
         << ", \"norm_exp_max\": " << json_number(r.num_norm_exp_max);
    }
    os << ", \"offdiag_decrease_ratio\": "
       << json_number(r.num_offdiag_decrease_ratio)
       << ", \"orthogonality_drift\": "
       << json_number(r.num_orthogonality_drift)
       << ", \"backward_error\": " << json_number(r.num_backward_error)
       << ", \"watchdog_divergence\": " << json_bool(r.num_watchdog_divergence)
       << ", \"watchdog_orthogonality\": "
       << json_bool(r.num_watchdog_orthogonality) << "},\n";
  }
  if (r.has_serve) {
    os << "\"serve\": {\"requests_total\": " << r.serve_requests_total
       << ", \"admitted_total\": " << r.serve_admitted_total
       << ", \"rejected_overload\": " << r.serve_rejected_overload
       << ", \"rejected_bad_request\": " << r.serve_rejected_bad_request
       << ", \"expired_deadline\": " << r.serve_expired_deadline
       << ", \"replies_ok\": " << r.serve_replies_ok
       << ", \"replies_error\": " << r.serve_replies_error
       << ", \"waves_total\": " << r.serve_waves_total
       << ", \"workspace_reuse_total\": " << r.serve_workspace_reuse_total
       << ", \"workspace_alloc_total\": " << r.serve_workspace_alloc_total
       << ", \"latency_p50_ms\": " << json_number(r.serve_latency_p50_ms)
       << ", \"latency_p95_ms\": " << json_number(r.serve_latency_p95_ms)
       << ", \"queue_depth\": ";
    append_series_stats(os, r.serve_queue_depth);
    os << "},\n";
  }
  os << "\"convergence\": [";
  for (std::size_t i = 0; i < r.convergence.size(); ++i) {
    const ConvergencePoint& p = r.convergence[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"sweep\": " << p.sweep
       << ", \"offdiag_frobenius\": " << json_number(p.offdiag_frobenius)
       << ", \"max_rel_offdiag\": " << json_number(p.max_rel_offdiag)
       << ", \"rotations\": " << p.rotations << ", \"skipped\": " << p.skipped
       << '}';
  }
  os << "\n]\n}\n";
  return os.str();
}

std::string report_table(const RunReport& r) {
  std::ostringstream os;
  os << "run: " << r.rows << "x" << r.cols << ", sweeps " << r.sweeps
     << (r.converged ? " (converged)" : " (NOT converged)") << ", rotations "
     << r.rotations_applied << " applied / " << r.rotations_skipped
     << " skipped, wall " << format_duration(r.wall_s) << "\n\n";

  if (!r.phases.empty()) {
    AsciiTable phases({"cat", "phase", "total", "count", "% of wall"});
    phases.set_caption("Per-phase wall-clock breakdown (spans nest; "
                       "fractions are per-name shares, not a partition)");
    for (const PhaseStat& p : r.phases)
      phases.add_row({p.cat, p.name, format_duration(p.total_s),
                      std::to_string(p.count), pct(p.frac_of_wall)});
    os << phases.to_string() << '\n';
  }


  if (r.has_sim) {
    os << "sim: param-FIFO depth " << format_fixed(r.sim_fifo_depth_groups, 0)
       << " groups, high-water " << format_fixed(r.sim_fifo_high_water_groups, 0)
       << " groups (= " << format_fixed(r.sim_fifo_high_water_rotations, 0)
       << " rotations calibrated), occupancy mean "
       << format_fixed(r.sim_fifo_occupancy.mean, 2) << " / p95 "
       << format_fixed(r.sim_fifo_occupancy.p95, 2) << " over "
       << r.sim_fifo_occupancy.samples << " samples, update utilization "
       << pct(r.sim_update_utilization) << "\n\n";
  }

  if (r.has_batch) {
    os << "batch: " << r.batch_items << " matrices (" << r.batch_items_ok
       << " ok / " << r.batch_items_failed << " failed) on "
       << r.batch_workers << " workers (" << r.batch_workers_requested
       << " requested), " << r.batch_steals << " steals, wall "
       << format_duration(r.batch_wall_s) << ", pool idle "
       << pct(r.batch_idle_frac) << "\n";
    if (!r.batch_worker_stats.empty()) {
      AsciiTable workers({"worker", "busy", "idle"});
      workers.set_caption("Batch-scheduler pool workers");
      for (const BatchWorkerStat& w : r.batch_worker_stats)
        workers.add_row({w.name, format_duration(w.busy_s),
                         format_duration(w.idle_s)});
      os << workers.to_string() << '\n';
    }
    os << "batch queue: occupancy mean "
       << format_fixed(r.batch_queue_occupancy.mean, 2) << " / p95 "
       << format_fixed(r.batch_queue_occupancy.p95, 2) << " / max "
       << format_fixed(r.batch_queue_occupancy.max, 0) << " over "
       << r.batch_queue_occupancy.samples << " samples\n\n";
  }

  if (r.has_live) {
    os << "live: ";
    if (r.live_ring_enabled) {
      os << "flight-recorder ring, capacity "
         << r.live_ring_capacity_events << " events/thread, "
         << r.live_dropped_events_total << " dropped";
    } else {
      os << "unbounded trace";
    }
    if (r.live_watchdog_present) {
      os << "; watchdog "
         << (r.live_watchdog_stalled ? "STALLED" : "no stall") << " ("
         << r.live_watchdog_stall_events << " episode(s) over "
         << r.live_watchdog_sweeps_observed
         << " sweeps, window " << r.live_watchdog_stall_sweeps
         << "), deadline ";
      if (r.live_watchdog_deadline_s > 0.0) {
        os << format_fixed(r.live_watchdog_deadline_s, 1) << "s "
           << (r.live_watchdog_deadline_exceeded ? "EXCEEDED" : "met");
      } else {
        os << "none";
      }
    }
    if (r.live_dumps > 0) os << "; " << r.live_dumps << " mid-run dump(s)";
    os << "\n\n";
  }

  if (r.has_numerics) {
    os << "numerics: " << r.num_samples << " sampled pairs (stride "
       << r.num_stride << "), cancellation " << pct(r.num_cancellation_frac)
       << " (worst rel " << format_sci(r.num_cancellation_worst_rel)
       << "), tiny-angle " << pct(r.num_tiny_angle_frac) << ", near-pi/4 "
       << pct(r.num_near_pi4_frac) << ", cond est "
       << format_sci(r.num_cond_estimate);
    if (r.num_cond_sigma >= 0.0)
      os << " (sigma " << format_sci(r.num_cond_sigma) << ")";
    if (r.num_offdiag_decrease_ratio >= 0.0)
      os << ", offdiag decrease " << format_sci(r.num_offdiag_decrease_ratio);
    if (r.num_orthogonality_drift >= 0.0)
      os << ", V drift " << format_sci(r.num_orthogonality_drift);
    if (r.num_backward_error >= 0.0)
      os << ", backward error " << format_sci(r.num_backward_error);
    os << "; verdicts: divergence "
       << (r.num_watchdog_divergence ? "FLAGGED" : "clear")
       << ", orthogonality "
       << (r.num_watchdog_orthogonality ? "FLAGGED" : "clear");
    if (r.num_nonfinite_events > 0)
      os << "; " << r.num_nonfinite_events << " NON-FINITE event(s)";
    os << "\n\n";
  }

  if (r.has_serve) {
    os << "serve: " << r.serve_requests_total << " requests ("
       << r.serve_admitted_total << " admitted / "
       << r.serve_rejected_overload << " overload / "
       << r.serve_rejected_bad_request << " bad), "
       << r.serve_expired_deadline << " deadline-expired, "
       << r.serve_replies_ok << " ok + " << r.serve_replies_error
       << " error replies over " << r.serve_waves_total
       << " wave(s); latency p50 "
       << format_fixed(r.serve_latency_p50_ms, 3) << "ms / p95 "
       << format_fixed(r.serve_latency_p95_ms, 3) << "ms; workspace "
       << r.serve_workspace_reuse_total << " reuses / "
       << r.serve_workspace_alloc_total << " allocs";
    if (r.serve_queue_depth.samples > 0)
      os << "; queue depth mean "
         << format_fixed(r.serve_queue_depth.mean, 2) << " / max "
         << format_fixed(r.serve_queue_depth.max, 0) << " over "
         << r.serve_queue_depth.samples << " samples";
    os << "\n\n";
  }

  if (!r.convergence.empty()) {
    AsciiTable conv(
        {"sweep", "offdiag Frobenius", "max rel offdiag", "rot", "skip"});
    conv.set_caption("Convergence trajectory (svd.sweep.* series)");
    for (const ConvergencePoint& p : r.convergence)
      conv.add_row({std::to_string(p.sweep), format_sci(p.offdiag_frobenius),
                    format_sci(p.max_rel_offdiag), std::to_string(p.rotations),
                    std::to_string(p.skipped)});
    os << conv.to_string() << '\n';
  }

  return os.str();
}

RunReport report_from_json(const JsonValue& doc) {
  // v1 differs from v2 only by the pipeline and cross_checks members,
  // which are not read here.
  const std::string schema = doc.string_or("schema");
  if (schema != obs::kReportSchema && schema != "hjsvd.report.v1")
    throw SchemaError("report document has schema '" + schema +
                      "', expected '" + obs::kReportSchema + "'");
  RunReport r;
  const JsonValue& run = doc.at("run");
  r.rows = static_cast<std::uint64_t>(run.number_or("rows", 0.0));
  r.cols = static_cast<std::uint64_t>(run.number_or("cols", 0.0));
  r.sweeps = static_cast<std::uint64_t>(run.number_or("sweeps", 0.0));
  const JsonValue* converged = run.find("converged");
  r.converged = converged != nullptr && converged->as_bool();
  r.rotations_applied =
      static_cast<std::uint64_t>(run.number_or("rotations_applied", 0.0));
  r.rotations_skipped =
      static_cast<std::uint64_t>(run.number_or("rotations_skipped", 0.0));
  r.wall_s = run.number_or("wall_s", 0.0);
  if (const JsonValue* phases = doc.find("phases");
      phases != nullptr && phases->is_array()) {
    for (const JsonValue& p : phases->as_array()) {
      PhaseStat stat;
      stat.cat = p.string_or("cat");
      stat.name = p.string_or("name");
      stat.total_s = p.number_or("total_s", 0.0);
      stat.count = static_cast<std::uint64_t>(p.number_or("count", 0.0));
      stat.frac_of_wall = p.number_or("frac_of_wall", 0.0);
      r.phases.push_back(std::move(stat));
    }
  }
  if (const JsonValue* sim = doc.find("sim");
      sim != nullptr && sim->is_object()) {
    r.has_sim = true;
    r.sim_fifo_depth_groups = sim->number_or("param_fifo_depth_groups", 0.0);
    r.sim_fifo_high_water_groups =
        sim->number_or("param_fifo_high_water_groups", 0.0);
    r.sim_fifo_high_water_rotations =
        sim->number_or("param_fifo_high_water_rotations", 0.0);
    if (const JsonValue* occ = sim->find("param_fifo_occupancy"))
      r.sim_fifo_occupancy = series_stats_from_json(*occ);
    r.sim_update_utilization = sim->number_or("update_utilization", 0.0);
  }
  if (const JsonValue* batch = doc.find("batch");
      batch != nullptr && batch->is_object()) {
    r.has_batch = true;
    const auto u64 = [&](const char* name) {
      return static_cast<std::uint64_t>(batch->number_or(name, 0.0));
    };
    r.batch_items = u64("items");
    r.batch_items_ok = u64("items_ok");
    r.batch_items_failed = u64("items_failed");
    r.batch_workers = u64("workers");
    r.batch_workers_requested = u64("workers_requested");
    r.batch_steals = u64("steals");
    r.batch_wall_s = batch->number_or("wall_s", 0.0);
    r.batch_idle_frac = batch->number_or("idle_frac", 0.0);
    if (const JsonValue* workers = batch->find("worker_threads");
        workers != nullptr && workers->is_array()) {
      for (const JsonValue& w : workers->as_array()) {
        BatchWorkerStat stat;
        stat.name = w.string_or("name");
        stat.busy_s = w.number_or("busy_s", 0.0);
        stat.idle_s = w.number_or("idle_s", 0.0);
        r.batch_worker_stats.push_back(std::move(stat));
      }
    }
    if (const JsonValue* occ = batch->find("queue_occupancy"))
      r.batch_queue_occupancy = series_stats_from_json(*occ);
  }
  if (const JsonValue* live = doc.find("live");
      live != nullptr && live->is_object()) {
    r.has_live = true;
    const auto flag = [&](const char* name) {
      const JsonValue* v = live->find(name);
      return v != nullptr && v->as_bool();
    };
    const auto u64 = [&](const char* name) {
      return static_cast<std::uint64_t>(live->number_or(name, 0.0));
    };
    r.live_ring_enabled = flag("ring_enabled");
    r.live_ring_capacity_events = u64("ring_capacity_events");
    r.live_dropped_events_total = u64("dropped_events_total");
    r.live_watchdog_present = flag("watchdog_present");
    r.live_watchdog_stalled = flag("watchdog_stalled");
    r.live_watchdog_deadline_exceeded = flag("watchdog_deadline_exceeded");
    r.live_watchdog_deadline_s = live->number_or("watchdog_deadline_s", 0.0);
    r.live_watchdog_stall_sweeps = u64("watchdog_stall_sweeps");
    r.live_watchdog_stall_events = u64("watchdog_stall_events");
    r.live_watchdog_sweeps_observed = u64("watchdog_sweeps_observed");
    r.live_watchdog_deadline_overruns = u64("watchdog_deadline_overruns");
    r.live_dumps = u64("dumps");
  }
  if (const JsonValue* num = doc.find("numerics");
      num != nullptr && num->is_object()) {
    r.has_numerics = true;
    const auto flag = [&](const char* name) {
      const JsonValue* v = num->find(name);
      return v != nullptr && v->as_bool();
    };
    const auto u64 = [&](const char* name) {
      return static_cast<std::uint64_t>(num->number_or(name, 0.0));
    };
    r.num_samples = u64("samples");
    r.num_stride = u64("stride");
    r.num_nonfinite_events = u64("nonfinite_events");
    r.num_cancellation_events = u64("cancellation_events");
    r.num_divergence_events = u64("divergence_events");
    r.num_cancellation_frac = num->number_or("cancellation_frac", 0.0);
    r.num_cancellation_worst_rel =
        num->number_or("cancellation_worst_rel", 1.0);
    r.num_tiny_angle_frac = num->number_or("tiny_angle_frac", 0.0);
    r.num_near_pi4_frac = num->number_or("near_pi4_frac", 0.0);
    if (const JsonValue* hist = num->find("angle_hist");
        hist != nullptr && hist->is_array()) {
      for (const JsonValue& b : hist->as_array())
        r.num_angle_hist.push_back(
            static_cast<std::uint64_t>(b.as_number()));
    }
    r.num_cond_estimate = num->number_or("cond_estimate", 1.0);
    r.num_cond_sigma = num->number_or("cond_sigma", -1.0);
    r.num_has_norm_exp = num->find("norm_exp_min") != nullptr;
    if (r.num_has_norm_exp) {
      r.num_norm_exp_min = num->number_or("norm_exp_min", 0.0);
      r.num_norm_exp_max = num->number_or("norm_exp_max", 0.0);
    }
    r.num_offdiag_decrease_ratio =
        num->number_or("offdiag_decrease_ratio", -1.0);
    r.num_orthogonality_drift = num->number_or("orthogonality_drift", -1.0);
    r.num_backward_error = num->number_or("backward_error", -1.0);
    r.num_watchdog_divergence = flag("watchdog_divergence");
    r.num_watchdog_orthogonality = flag("watchdog_orthogonality");
  }
  if (const JsonValue* serve = doc.find("serve");
      serve != nullptr && serve->is_object()) {
    r.has_serve = true;
    const auto u64 = [&](const char* name) {
      return static_cast<std::uint64_t>(serve->number_or(name, 0.0));
    };
    r.serve_requests_total = u64("requests_total");
    r.serve_admitted_total = u64("admitted_total");
    r.serve_rejected_overload = u64("rejected_overload");
    r.serve_rejected_bad_request = u64("rejected_bad_request");
    r.serve_expired_deadline = u64("expired_deadline");
    r.serve_replies_ok = u64("replies_ok");
    r.serve_replies_error = u64("replies_error");
    r.serve_waves_total = u64("waves_total");
    r.serve_workspace_reuse_total = u64("workspace_reuse_total");
    r.serve_workspace_alloc_total = u64("workspace_alloc_total");
    r.serve_latency_p50_ms = serve->number_or("latency_p50_ms", 0.0);
    r.serve_latency_p95_ms = serve->number_or("latency_p95_ms", 0.0);
    if (const JsonValue* depth = serve->find("queue_depth");
        depth != nullptr && depth->is_object())
      r.serve_queue_depth = series_stats_from_json(*depth);
  }
  if (const JsonValue* conv = doc.find("convergence");
      conv != nullptr && conv->is_array()) {
    for (const JsonValue& p : conv->as_array()) {
      ConvergencePoint point;
      point.sweep = static_cast<std::uint64_t>(p.number_or("sweep", 0.0));
      point.offdiag_frobenius = p.number_or("offdiag_frobenius", 0.0);
      point.max_rel_offdiag = p.number_or("max_rel_offdiag", 0.0);
      point.rotations =
          static_cast<std::uint64_t>(p.number_or("rotations", 0.0));
      point.skipped = static_cast<std::uint64_t>(p.number_or("skipped", 0.0));
      r.convergence.push_back(point);
    }
  }
  return r;
}

CompareResult compare_reports(const RunReport& baseline,
                              const RunReport& candidate,
                              const CompareThresholds& thresholds) {
  CompareResult out;
  const auto check = [&](bool failed, const std::string& line) {
    out.findings.push_back((failed ? "FAIL " : "ok   ") + line);
    if (failed) out.regressed = true;
  };

  if (baseline.rows != candidate.rows || baseline.cols != candidate.cols) {
    check(true, "workload mismatch: baseline " + std::to_string(baseline.rows) +
                    "x" + std::to_string(baseline.cols) + " vs candidate " +
                    std::to_string(candidate.rows) + "x" +
                    std::to_string(candidate.cols) +
                    " — reports are not comparable");
    return out;
  }

  if (baseline.wall_s > 0.0) {
    const double limit =
        baseline.wall_s * (1.0 + thresholds.max_wall_regress_frac);
    const double delta_frac =
        (candidate.wall_s - baseline.wall_s) / baseline.wall_s;
    check(candidate.wall_s > limit,
          "wall_s " + format_sci(baseline.wall_s) + " -> " +
              format_sci(candidate.wall_s) + " (" +
              format_fixed(delta_frac * 100.0, 1) + "%, limit +" +
              format_fixed(thresholds.max_wall_regress_frac * 100.0, 1) + "%)");
  }

  check(candidate.sweeps > baseline.sweeps + thresholds.max_sweep_increase,
        "sweeps " + std::to_string(baseline.sweeps) + " -> " +
            std::to_string(candidate.sweeps) + " (limit +" +
            std::to_string(thresholds.max_sweep_increase) + ")");

  check(baseline.converged && !candidate.converged,
        std::string("converged ") + (baseline.converged ? "yes" : "no") +
            " -> " + (candidate.converged ? "yes" : "no"));

  if (baseline.rotations_applied > 0) {
    const double limit =
        static_cast<double>(baseline.rotations_applied) *
        (1.0 + thresholds.max_rotation_increase_frac);
    check(static_cast<double>(candidate.rotations_applied) > limit,
          "rotations_applied " + std::to_string(baseline.rotations_applied) +
              " -> " + std::to_string(candidate.rotations_applied) +
              " (limit +" +
              format_fixed(thresholds.max_rotation_increase_frac * 100.0, 1) +
              "%)");
  }

  // Accuracy leaves (numerics section): higher is worse, gated exactly as
  // timings — relative regression fraction with an absolute noise floor so
  // two rounding-level values cannot produce a spurious "50% worse".  A
  // value of -1 means the run did not record the measure (values-only run);
  // compare only when both sides have it.
  if (baseline.has_numerics && candidate.has_numerics) {
    const auto check_accuracy = [&](const char* label, double base,
                                    double cand) {
      if (base < 0.0 || cand < 0.0) return;
      const double limit =
          std::max(base * (1.0 + thresholds.max_accuracy_regress_frac),
                   base + thresholds.accuracy_noise_floor);
      check(cand > limit, std::string(label) + " " + format_sci(base) +
                              " -> " + format_sci(cand) + " (limit " +
                              format_sci(limit) + ")");
    };
    check_accuracy("numerics backward_error", baseline.num_backward_error,
                   candidate.num_backward_error);
    check_accuracy("numerics orthogonality_drift",
                   baseline.num_orthogonality_drift,
                   candidate.num_orthogonality_drift);
    // Verdict invariants: false -> true flips are regressions, like the
    // live watchdog verdicts below.
    check(!baseline.num_watchdog_divergence &&
              candidate.num_watchdog_divergence,
          std::string("numerics watchdog_divergence ") +
              (baseline.num_watchdog_divergence ? "true" : "false") + " -> " +
              (candidate.num_watchdog_divergence ? "true" : "false"));
    check(!baseline.num_watchdog_orthogonality &&
              candidate.num_watchdog_orthogonality,
          std::string("numerics watchdog_orthogonality ") +
              (baseline.num_watchdog_orthogonality ? "true" : "false") +
              " -> " +
              (candidate.num_watchdog_orthogonality ? "true" : "false"));
  }

  // Live-telemetry invariants, not timings: a candidate must not introduce
  // watchdog verdicts the baseline did not have, and a flight-recorder
  // candidate must not start dropping ring events when the baseline
  // dropped none (that means the ring got too small for the workload).
  if (baseline.has_live && candidate.has_live) {
    check(!baseline.live_watchdog_stalled && candidate.live_watchdog_stalled,
          std::string("watchdog stalled ") +
              (baseline.live_watchdog_stalled ? "true" : "false") + " -> " +
              (candidate.live_watchdog_stalled ? "true" : "false"));
    check(!baseline.live_watchdog_deadline_exceeded &&
              candidate.live_watchdog_deadline_exceeded,
          std::string("watchdog deadline_exceeded ") +
              (baseline.live_watchdog_deadline_exceeded ? "true" : "false") +
              " -> " +
              (candidate.live_watchdog_deadline_exceeded ? "true" : "false"));
    if (baseline.live_ring_enabled && candidate.live_ring_enabled) {
      check(baseline.live_dropped_events_total == 0 &&
                candidate.live_dropped_events_total > 0,
            "ring dropped_events_total " +
                std::to_string(baseline.live_dropped_events_total) + " -> " +
                std::to_string(candidate.live_dropped_events_total));
    }
  }

  return out;
}

}  // namespace hjsvd::report
