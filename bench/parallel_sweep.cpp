// Thread-scaling benchmark for the parallel sweep engines and svd_batch().
//
// Measures, per matrix size and thread count, the wall-clock time of the
// block-partitioned modified (Gram-rotating) engine and the pair-parallel
// plain engine against the sequential round-robin implementations, and the
// throughput of svd_batch() over a mixed batch.  Every parallel run is
// checked bit-for-bit against its sequential reference — speedup numbers are
// only meaningful if the determinism contract holds.
//
// The parallel engines run their per-round loops on a WorkStealingPool of
// the benchmarked thread count.  Results are written as JSON (default
// BENCH_parallel_sweep.json) so runs on different hosts can be compared; on
// a single-core host the speedups are expected to hover around 1.0x.  A
// second section times the observability overhead of the default svd()
// engine (default BENCH_obs_overhead.json).
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
#include "svd/parallel_sweep.hpp"
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
  Cli cli("Thread scaling of the parallel sweep engines and svd_batch");
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
  std::cout << "== Parallel sweep engine scaling ==\n"
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

  std::vector<std::string> headers{"n", "seq modified (s)"};
  for (auto t : threads)
    headers.push_back("t=" + std::to_string(t) + " speedup");
  AsciiTable table(headers);
  table.set_caption(
      "Modified-engine speedup vs sequential (bit-identical checked):");

  bool all_identical = true;
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    const auto n = static_cast<std::size_t>(sizes[si]);
    Rng rng(4200 + static_cast<std::uint64_t>(n));
    const Matrix a = random_gaussian(n, n, rng);

    SvdResult seq_mod, seq_plain;
    const double t_seq_mod =
        best_of(reps, [&] { seq_mod = modified_hestenes_svd(a, cfg); });
    const double t_seq_plain =
        best_of(reps, [&] { seq_plain = plain_hestenes_svd(a, cfg); });

    json << "    {\"n\": " << n << ", \"sequential_modified_s\": "
         << fmt(t_seq_mod) << ", \"sequential_plain_s\": " << fmt(t_seq_plain)
         << ", \"engines\": [";
    std::vector<std::string> row{std::to_string(n), fmt(t_seq_mod)};
    for (std::size_t ti = 0; ti < threads.size(); ++ti) {
      WorkStealingPool pool(static_cast<std::size_t>(threads[ti]));
      const ParallelSweepConfig par{.pool = &pool};
      SvdResult par_mod, par_plain;
      const double t_mod = best_of(
          reps, [&] { par_mod = parallel_modified_hestenes_svd(a, cfg, par); });
      const double t_plain = best_of(
          reps, [&] { par_plain = parallel_plain_hestenes_svd(a, cfg, par); });
      const bool ok = values_bit_identical(par_mod, seq_mod) &&
                      values_bit_identical(par_plain, seq_plain);
      all_identical = all_identical && ok;
      json << (ti ? ", " : "") << "{\"threads\": " << threads[ti]
           << ", \"modified_s\": " << fmt(t_mod)
           << ", \"plain_s\": " << fmt(t_plain)
           << ", \"modified_speedup\": " << fmt(t_seq_mod / t_mod)
           << ", \"plain_speedup\": " << fmt(t_seq_plain / t_plain)
           << ", \"bit_identical\": " << (ok ? "true" : "false") << "}";
      row.push_back(format_fixed(t_seq_mod / t_mod, 2) + "x" +
                    (ok ? "" : " MISMATCH"));
    }
    json << "]}" << (si + 1 < sizes.size() ? "," : "") << "\n";
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
                    ? "All parallel runs bit-identical to sequential.\n"
                    : "ERROR: bitwise mismatch between parallel and "
                      "sequential runs!\n")
            << (overhead_ok
                    ? ""
                    : "ERROR: enabled/probes/live timings differ from "
                      "disabled by more than the symmetric 5% overhead "
                      "guardrail!\n");
  return (all_identical && overhead_ok) ? 0 : 1;
}
