// Thread-scaling benchmark for the plain engine's pooled rounds and
// svd_batch().
//
// Measures, per matrix size and thread count, the wall-clock time of the
// plain (column-rotating) engine running each round-robin round on a
// WorkStealingPool of that many workers, against its inline run (no pool)
// and the sequential modified engine, and the throughput of svd_batch()
// over a mixed batch.  Every pooled run is checked bit-for-bit against the
// inline run — speedup numbers are only meaningful if the determinism
// contract holds.  Per size it also times svd() with the plain method:
// with default options (inline) and with threads = the hardware
// concurrency, which runs on an ephemeral engine's pool only above the
// pooled-round work cutoff (detail::kMinPooledRoundWork) and inline below
// it.
//
// Results are written as JSON (default BENCH_parallel_sweep.json) so runs
// on different hosts can be compared; on a single-core host the speedups
// are expected to hover around 1.0x.  A second section times the
// observability overhead of the default svd() engine (default
// BENCH_obs_overhead.json).
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/dispatch.hpp"
#include "api/svd.hpp"
#include "common/cli.hpp"
#include "common/pool.hpp"
#include "obs/guardrail.hpp"
#include "obs/live.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/numerics.hpp"
#include "obs/trace.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "fp/softfloat.hpp"
#include "linalg/generate.hpp"
#include "svd/hestenes.hpp"
#include "svd/plain_hestenes.hpp"

using namespace hjsvd;

namespace {

bool values_bit_identical(const SvdResult& a, const SvdResult& b) {
  if (a.singular_values.size() != b.singular_values.size()) return false;
  for (std::size_t i = 0; i < a.singular_values.size(); ++i)
    if (fp::to_bits(a.singular_values[i]) != fp::to_bits(b.singular_values[i]))
      return false;
  return true;
}

template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

std::string fmt(double x) {
  std::ostringstream os;
  os.precision(6);
  os << x;
  return os.str();
}

// Provenance block shared by every JSON this binary writes; bench_gate.py
// refuses to compare files whose manifests disagree on schema versions.
std::string manifest(const std::string& config) {
  obs::RunManifest m;
  m.tool = "bench_parallel_sweep";
  m.config = config;
  return obs::manifest_json(m);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("Thread scaling of the plain engine's pooled rounds and svd_batch");
  cli.add_option("sizes", "64,128,256", "square matrix sizes");
  cli.add_option("threads", "1,2,4", "thread counts to benchmark");
  cli.add_option("reps", "3", "repetitions per timing (best-of)");
  cli.add_option("batch", "24", "number of matrices in the svd_batch run");
  cli.add_option("batch-rows", "48", "rows of each batch matrix");
  cli.add_option("batch-cols", "32", "cols of each batch matrix");
  cli.add_option("out", "BENCH_parallel_sweep.json", "JSON output path");
  // Mid-range sizes on purpose: recording sites fire per round, so events
  // per second — the thing the guardrail bounds — peak at smaller n, but
  // below ~0.1 s/run fixed recorder setup dominates, and multi-second runs
  // mostly measure background host load rather than overhead.
  cli.add_option("obs-sizes", "256,384",
                 "square sizes for the observability-overhead guardrail");
  cli.add_option("obs-reps", "9",
                 "paired repetitions of the overhead guardrail (median)");
  cli.add_option("obs-out", "BENCH_obs_overhead.json",
                 "JSON output path of the observability-overhead section");
  cli.parse(argc, argv);
  const auto sizes = cli.get_int_list("sizes");
  const auto threads = cli.get_int_list("threads");
  const int reps = static_cast<int>(cli.get_int("reps"));

  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::cout << "== Plain engine round scaling ==\n"
            << "hardware threads available: " << hw_threads << "\n\n";

  HestenesConfig cfg;
  cfg.ordering = Ordering::kRoundRobin;

  std::ostringstream json;
  json << "{\n  \"bench\": \"parallel_sweep\",\n"
       << "  \"manifest\": "
       << manifest("sizes=" + cli.get("sizes") + " threads=" +
                   cli.get("threads") + " reps=" + cli.get("reps"))
       << ",\n"
       << "  \"hardware_threads\": " << hw_threads << ",\n"
       << "  \"reps\": " << reps << ",\n  \"sizes\": [\n";

  std::vector<std::string> headers{"n", "modified (s)", "plain inline (s)"};
  for (auto t : threads)
    headers.push_back("t=" + std::to_string(t) + " speedup");
  headers.push_back("svd() default (s)");
  headers.push_back("svd() t=" + std::to_string(default_thread_count()) +
                    " speedup");
  AsciiTable table(headers);
  table.set_caption(
      "Pooled plain engine speedup vs its inline run (bit-identical "
      "checked):");

  bool all_identical = true;
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    const auto n = static_cast<std::size_t>(sizes[si]);
    Rng rng(4200 + static_cast<std::uint64_t>(n));
    const Matrix a = random_gaussian(n, n, rng);

    SvdResult inline_plain;
    const double t_mod =
        best_of(reps, [&] { (void)modified_hestenes_svd(a, cfg); });
    const double t_inline =
        best_of(reps, [&] { inline_plain = plain_hestenes_svd(a, cfg); });

    json << "    {\"n\": " << n << ", \"sequential_modified_s\": "
         << fmt(t_mod) << ", \"inline_plain_s\": " << fmt(t_inline)
         << ", \"engines\": [";
    std::vector<std::string> row{std::to_string(n), fmt(t_mod),
                                 fmt(t_inline)};
    for (std::size_t ti = 0; ti < threads.size(); ++ti) {
      WorkStealingPool pool(static_cast<std::size_t>(threads[ti]));
      SvdResult pooled;
      const double t_pooled = best_of(
          reps, [&] { pooled = plain_hestenes_svd(a, cfg, nullptr, &pool); });
      const bool ok = values_bit_identical(pooled, inline_plain);
      all_identical = all_identical && ok;
      json << (ti ? ", " : "") << "{\"threads\": " << threads[ti]
           << ", \"plain_s\": " << fmt(t_pooled)
           << ", \"plain_speedup\": " << fmt(t_inline / t_pooled)
           << ", \"bit_identical\": " << (ok ? "true" : "false") << "}";
      row.push_back(format_fixed(t_inline / t_pooled, 2) + "x" +
                    (ok ? "" : " MISMATCH"));
    }
    // The front door: default options (inline), and threads = the
    // hardware concurrency, whose pooling decision and, for pooled sizes,
    // ephemeral thread spawn are inside the timed call.
    SvdOptions front;
    front.method = SvdMethod::kPlainHestenes;
    SvdOptions front_hw = front;
    front_hw.threads = default_thread_count();
    SvdResult by_default, by_hw;
    const double t_front = best_of(reps, [&] { by_default = svd(a, front); });
    const double t_front_hw =
        best_of(reps, [&] { by_hw = svd(a, front_hw); });
    const bool front_ok = values_bit_identical(by_default, by_hw);
    // Workers the threads = hardware call's rounds ran on (1 = inline).
    const std::size_t front_workers =
        front_hw.threads > 1 &&
                detail::runs_on_pool(SvdMethod::kPlainHestenes, a)
            ? front_hw.threads
            : 1;
    all_identical = all_identical && front_ok;
    json << "], \"svd_plain_default_s\": " << fmt(t_front)
         << ", \"svd_plain_hw_s\": " << fmt(t_front_hw)
         << ", \"svd_plain_hw_workers\": " << front_workers
         << ", \"svd_plain_bit_identical\": "
         << (front_ok ? "true" : "false") << "}"
         << (si + 1 < sizes.size() ? "," : "") << "\n";
    row.push_back(fmt(t_front));
    row.push_back(format_fixed(t_front / t_front_hw, 2) + "x" +
                  (front_workers > 1 ? " pooled" : " inline") +
                  (front_ok ? "" : " MISMATCH"));
    table.add_row(row);
  }
  std::cout << table.to_string() << '\n';

  // --- svd_batch throughput ------------------------------------------------
  const auto count = static_cast<std::size_t>(cli.get_int("batch"));
  const auto bm = static_cast<std::size_t>(cli.get_int("batch-rows"));
  const auto bn = static_cast<std::size_t>(cli.get_int("batch-cols"));
  Rng brng(777);
  std::vector<Matrix> batch;
  for (std::size_t i = 0; i < count; ++i)
    batch.push_back(random_gaussian(bm, bn, brng));

  json << "  ],\n  \"batch\": {\"count\": " << count << ", \"rows\": " << bm
       << ", \"cols\": " << bn << ", \"runs\": [";
  std::vector<SvdResult> ref_batch;
  AsciiTable btab({"threads", "seconds", "matrices/s"});
  btab.set_caption("svd_batch throughput (" + std::to_string(count) + " x " +
                   std::to_string(bm) + "x" + std::to_string(bn) + "):");
  for (std::size_t ti = 0; ti < threads.size(); ++ti) {
    const auto t = static_cast<std::size_t>(threads[ti]);
    std::vector<SvdResult> out;
    const double secs = best_of(reps, [&] { out = svd_batch(batch, {}, t); });
    bool ok = true;
    if (ti == 0) {
      ref_batch = out;
    } else {
      for (std::size_t i = 0; i < out.size(); ++i)
        ok = ok && values_bit_identical(out[i], ref_batch[i]);
    }
    all_identical = all_identical && ok;
    json << (ti ? ", " : "") << "{\"threads\": " << t
         << ", \"seconds\": " << fmt(secs) << ", \"matrices_per_s\": "
         << fmt(static_cast<double>(count) / secs)
         << ", \"bit_identical\": " << (ok ? "true" : "false") << "}";
    btab.add_row({std::to_string(t), fmt(secs),
                  format_fixed(static_cast<double>(count) / secs, 1)});
  }
  json << "]},\n  \"all_bit_identical\": "
       << (all_identical ? "true" : "false") << "\n}\n";
  std::cout << btab.to_string() << '\n';

  const std::string out_path = cli.get("out");
  write_file(out_path, json.str());
  std::cout << "JSON written to " << out_path << '\n';

  // --- Observability overhead guardrail ------------------------------------
  // The default svd() engine (modified Hestenes, values only, run to
  // convergence) in four modes of the instrumented build (the same
  // binary): "disabled"
  // detaches the sinks (the shipping default — one null-pointer test per
  // sweep/round), "enabled" attaches a live recorder and registry,
  // "probes" attaches a metrics registry plus the numerical-health probe
  // at its default sampling stride (the --num-probes configuration), and
  // "live" attaches the full live-telemetry stack — a bounded
  // flight-recorder ring, a watchdog, and a SnapshotExporter thread
  // sampling into a scratch directory while the decomposition is timed.
  // The guardrail is symmetric: |mode - disabled| must be at most 5% of the
  // slower side (obs::overhead_within) — attached sinks must be cheap AND a
  // "disabled faster than enabled by miles" result would equally indicate a
  // broken measurement.  Compiling with -DHJSVD_OBS=0 removes even the
  // pointer tests.  Results are re-checked bit-identical between all three
  // modes (the obs layer's core contract).
  const auto obs_sizes = cli.get_int_list("obs-sizes");
  const int obs_reps = static_cast<int>(cli.get_int("obs-reps"));
  std::ostringstream ojson;
  ojson << "{\n  \"bench\": \"obs_overhead\",\n"
        << "  \"manifest\": "
        << manifest("obs-sizes=" + cli.get("obs-sizes") + " obs-reps=" +
                    cli.get("obs-reps") + " engine=svd-default")
        << ",\n"
        << "  \"hardware_threads\": " << hw_threads << ",\n"
        << "  \"reps\": " << obs_reps << ",\n"
        << "  \"compiled_in\": " << (obs::kEnabled ? "true" : "false")
        << ",\n  \"sizes\": [\n";
  AsciiTable otab({"n", "disabled (s)", "enabled (s)", "enabled overhead",
                   "probes (s)", "probes overhead", "live (s)",
                   "live overhead"});
  otab.set_caption("Observability overhead (default svd() engine, sinks "
                   "detached vs attached vs numerics probes vs full live "
                   "telemetry):");
  bool overhead_ok = true;
  const std::filesystem::path live_scratch =
      std::filesystem::temp_directory_path() / "hjsvd_bench_obs_live";
  for (std::size_t si = 0; si < obs_sizes.size(); ++si) {
    const auto n = static_cast<std::size_t>(obs_sizes[si]);
    Rng rng(6200 + static_cast<std::uint64_t>(n));
    const Matrix a = random_gaussian(n, n, rng);

    // Paired measurement: each repetition times the three modes back to
    // back — independent best-ofs can sample the modes under different
    // host-load phases and manufacture an "overhead" (of either sign)
    // that no mode actually has.  The reported triple is the repetition
    // with the *median* enabled/disabled ratio: external load perturbs
    // individual repetitions in both directions, and the median is
    // robust against those outliers where a min-of-sums pick is not.
    struct RepTimes {
      double off_s, on_s, probes_s, live_s;
    };
    SvdResult off_result, on_result, probes_result, live_result;
    std::vector<RepTimes> measured;
    for (int r = 0; r < obs_reps; ++r) {
      Timer toff;
      off_result = svd(a);
      const double off_s = toff.seconds();
      double on_s = 0.0;
      {
        obs::TraceRecorder trace;
        obs::MetricsRegistry metrics;
        SvdOptions with;
        with.trace = &trace;
        with.metrics = &metrics;
        Timer ton;
        on_result = svd(a, with);
        on_s = ton.seconds();
      }
      double probes_s = 0.0;
      {
        // Numerical-health probes at the default --num-probes stride: a
        // metrics registry plus the sampled accuracy probe, including the
        // finalize-time drift/backward-error pass inside the timed region
        // (that is where --num-probes pays it).
        obs::MetricsRegistry metrics;
        obs::NumericsProbe probe({}, &metrics);
        SvdOptions with;
        with.metrics = &metrics;
        with.numerics = &probe;
        Timer tprobes;
        probes_result = svd(a, with);
        probes_s = tprobes.seconds();
      }
      double live_s = 0.0;
      {
        // Full live stack: bounded ring, watchdog, and an exporter
        // thread actively sampling while the timed region runs.  The
        // exporter is constructed outside the timed region (thread
        // startup and file creation are per-run, not per-sweep costs)
        // but keeps ticking through it.
        std::filesystem::create_directories(live_scratch);
        obs::TraceRecorder trace(4096);
        obs::MetricsRegistry metrics;
        obs::Watchdog::Config wcfg;
        obs::Watchdog watchdog(wcfg, &trace, &metrics);
        // Shipping-default sampling interval (100 ms): the guardrail
        // bounds the cost of the *default* live configuration.  On a
        // 1-core host an aggressive interval simply time-slices the
        // core away from the engine — that is honest load, not sink
        // overhead, and it is not what --obs-live enables by default.
        obs::LiveConfig lcfg;
        lcfg.dir = live_scratch.string();
        obs::SnapshotExporter exporter(lcfg, &trace, &metrics, &watchdog);
        SvdOptions with;
        with.trace = &trace;
        with.metrics = &metrics;
        with.watchdog = &watchdog;
        Timer tlive;
        live_result = svd(a, with);
        live_s = tlive.seconds();
        exporter.stop();
      }
      measured.push_back({off_s, on_s, probes_s, live_s});
    }
    // Each mode gets its own median-ratio repetition: an outlier in one
    // mode must not pick the reported repetition for the other.
    std::sort(measured.begin(), measured.end(),
              [](const auto& x, const auto& y) {
                return x.on_s / x.off_s < y.on_s / y.off_s;
              });
    const double t_off = measured[measured.size() / 2].off_s;
    const double t_on = measured[measured.size() / 2].on_s;
    std::sort(measured.begin(), measured.end(),
              [](const auto& x, const auto& y) {
                return x.probes_s / x.off_s < y.probes_s / y.off_s;
              });
    const double t_off_probes = measured[measured.size() / 2].off_s;
    const double t_probes = measured[measured.size() / 2].probes_s;
    std::sort(measured.begin(), measured.end(),
              [](const auto& x, const auto& y) {
                return x.live_s / x.off_s < y.live_s / y.off_s;
              });
    const double t_off_live = measured[measured.size() / 2].off_s;
    const double t_live = measured[measured.size() / 2].live_s;
    const bool ok = values_bit_identical(off_result, on_result);
    const bool ok_probes = values_bit_identical(off_result, probes_result);
    const bool ok_live = values_bit_identical(off_result, live_result);
    const bool within = obs::overhead_within(t_off, t_on, 0.05);
    const bool within_probes =
        obs::overhead_within(t_off_probes, t_probes, 0.05);
    const bool within_live = obs::overhead_within(t_off_live, t_live, 0.05);
    const double ofrac = obs::overhead_frac(t_on, t_off);
    const double pfrac = obs::overhead_frac(t_probes, t_off_probes);
    const double lfrac = obs::overhead_frac(t_live, t_off_live);
    all_identical = all_identical && ok && ok_probes && ok_live;
    overhead_ok = overhead_ok && within && within_probes && within_live;
    ojson << "    {\"n\": " << n << ", \"disabled_s\": " << fmt(t_off)
          << ", \"enabled_s\": " << fmt(t_on)
          << ", \"enabled_overhead_frac\": " << fmt(ofrac)
          << ", \"within_symmetric_5pct\": " << (within ? "true" : "false")
          << ", \"probes_s\": " << fmt(t_probes)
          << ", \"probes_overhead_frac\": " << fmt(pfrac)
          << ", \"probes_within_symmetric_5pct\": "
          << (within_probes ? "true" : "false")
          << ", \"probes_bit_identical\": " << (ok_probes ? "true" : "false")
          << ", \"live_s\": " << fmt(t_live)
          << ", \"live_overhead_frac\": " << fmt(lfrac)
          << ", \"live_within_symmetric_5pct\": "
          << (within_live ? "true" : "false")
          << ", \"live_bit_identical\": " << (ok_live ? "true" : "false")
          << ", \"bit_identical\": " << (ok ? "true" : "false") << "}"
          << (si + 1 < obs_sizes.size() ? "," : "") << "\n";
    otab.add_row({std::to_string(n), fmt(t_off), fmt(t_on),
                  format_fixed(ofrac * 100.0, 1) + "%" +
                      (within ? "" : " GUARDRAIL"),
                  fmt(t_probes),
                  format_fixed(pfrac * 100.0, 1) + "%" +
                      (within_probes ? "" : " GUARDRAIL"),
                  fmt(t_live),
                  format_fixed(lfrac * 100.0, 1) + "%" +
                      (within_live ? "" : " GUARDRAIL")});
  }
  std::error_code scratch_ec;
  std::filesystem::remove_all(live_scratch, scratch_ec);
  ojson << "  ],\n  \"guardrail_ok\": " << (overhead_ok ? "true" : "false")
        << "\n}\n";
  std::cout << otab.to_string() << '\n';
  const std::string obs_out = cli.get("obs-out");
  write_file(obs_out, ojson.str());
  std::cout << "JSON written to " << obs_out << '\n'
            << (all_identical
                    ? "All pooled and obs runs bit-identical to their "
                      "references.\n"
                    : "ERROR: bitwise mismatch against a reference run!\n")
            << (overhead_ok
                    ? ""
                    : "ERROR: enabled/probes/live timings differ from "
                      "disabled by more than the symmetric 5% overhead "
                      "guardrail!\n");
  return (all_identical && overhead_ok) ? 0 : 1;
}
