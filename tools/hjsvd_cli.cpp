// hjsvd_cli — command-line SVD driver.
//
// Decompose a Matrix Market file with any of the library's algorithms,
// print singular values, optionally write U/V back out as .mtx, estimate
// the FPGA accelerator's execution for the same problem, or generate test
// matrices.
//
//   hjsvd_cli --input A.mtx --method hestenes --values 10
//   hjsvd_cli --input A.mtx --method golub-kahan --write-u U.mtx --write-v V.mtx
//   hjsvd_cli --input A.mtx --fpga-estimate
//   hjsvd_cli --input A.mtx --method plain --threads 4
//   hjsvd_cli --input A.mtx --method hestenes
//       --trace-out trace.json --metrics-out metrics.json
//   hjsvd_cli --generate 512x128 --seed 3 --output A.mtx
//   hjsvd_cli --batch matrices/ --threads 4
//   hjsvd_cli --batch 24x16*6,64x48 --seed 7 --threads 4
//       --trace-out trace.json --metrics-out metrics.json
#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "api/engine.hpp"
#include "api/svd.hpp"
#include "arch/accelerator_sim.hpp"
#include "arch/timing_model.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "linalg/generate.hpp"
#include "linalg/io.hpp"
#include "linalg/simd/simd.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/numerics.hpp"
#include "obs/trace.hpp"

using namespace hjsvd;

namespace {

/// Bad command-line usage: reported with the full help text and a distinct
/// exit code (2), unlike runtime failures (1).
class UsageError : public Error {
 public:
  using Error::Error;
};

SvdMethod parse_method(const std::string& name) {
  SvdMethod method;
  if (!svd_method_from_token(name, &method))
    throw UsageError("unknown --method '" + name +
                     "' (hestenes|plain|two-sided|golub-kahan)");
  return method;
}

/// Parses an option that must be a positive finite number.  Non-numeric
/// text, 0, negatives, inf and nan are all usage errors (exit 2 with the
/// help text), never runtime failures: Cli::get_double throws plain Error
/// on unparseable input, which main() would otherwise map to exit 1.
double parse_positive_double(const Cli& cli, const std::string& name) {
  const std::string raw = cli.get(name);
  double value = 0.0;
  try {
    value = cli.get_double(name);
  } catch (const Error&) {
    throw UsageError("--" + name + " expects a number, got '" + raw + "'");
  }
  if (!(std::isfinite(value) && value > 0.0))
    throw UsageError("--" + name + " must be a positive finite number, got '" +
                     raw + "'");
  return value;
}

/// Parses a strictly positive count option; "auto" (and, for --threads,
/// its historical spelling "all") means implementation-chosen.
std::size_t parse_count(const Cli& cli, const std::string& name,
                        std::size_t auto_value) {
  const std::string raw = cli.get(name);
  if (raw == "auto" || raw == "all") return auto_value;
  std::int64_t value = 0;
  try {
    value = cli.get_int(name);
  } catch (const Error&) {
    throw UsageError("--" + name + " expects a positive integer or 'auto', got '" +
                     raw + "'");
  }
  if (value <= 0) {
    throw UsageError("--" + name + " must be >= 1 (or 'auto'), got '" + raw +
                     "'");
  }
  return static_cast<std::size_t>(value);
}

/// Parses a non-negative integer option; 0 means "disabled"/"unbounded".
std::size_t parse_nonneg_count(const Cli& cli, const std::string& name) {
  const std::string raw = cli.get(name);
  std::int64_t value = -1;
  try {
    value = cli.get_int(name);
  } catch (const Error&) {
    throw UsageError("--" + name + " expects a non-negative integer, got '" +
                     raw + "'");
  }
  if (value < 0)
    throw UsageError("--" + name + " must be >= 0, got '" + raw + "'");
  return static_cast<std::size_t>(value);
}

/// Parses a non-negative finite number option; 0 means "disabled".
double parse_nonneg_double(const Cli& cli, const std::string& name) {
  const std::string raw = cli.get(name);
  double value = -1.0;
  try {
    value = cli.get_double(name);
  } catch (const Error&) {
    throw UsageError("--" + name + " expects a number, got '" + raw + "'");
  }
  if (!(std::isfinite(value) && value >= 0.0))
    throw UsageError("--" + name +
                     " must be a non-negative finite number, got '" + raw +
                     "'");
  return value;
}

/// Parses --num-probes: "" / "off" / "false" disables (returns 0), "on" /
/// "true" enables at the default stride, a positive integer sets the
/// sampling stride explicitly.
std::size_t parse_num_probes(const Cli& cli) {
  const std::string raw = cli.get("num-probes");
  if (raw.empty() || raw == "off" || raw == "false") return 0;
  if (raw == "on" || raw == "true") return obs::NumericsProbe::Config{}.stride;
  std::int64_t value = 0;
  try {
    value = cli.get_int("num-probes");
  } catch (const Error&) {
    throw UsageError("--num-probes expects on|off or a positive stride, "
                     "got '" + raw + "'");
  }
  if (value <= 0)
    throw UsageError("--num-probes stride must be >= 1, got '" + raw + "'");
  return static_cast<std::size_t>(value);
}

/// Applies --simd to the process-wide dispatch level.  "auto" keeps the
/// startup choice (HJSVD_SIMD env var, else best available); the explicit
/// levels override it for this run.
void apply_simd_level(const std::string& name) {
  if (name == "auto") return;
  if (name == "off" || name == "scalar") {
    simd::set_level(simd::Level::kScalar);
    return;
  }
  if (name == "avx2") {
    if (!simd::compiled_with_avx2())
      throw UsageError("--simd avx2: this binary was built with HJSVD_SIMD=OFF "
                       "or without AVX2 compiler support");
    if (!simd::cpu_has_avx2())
      throw UsageError("--simd avx2: this CPU does not support AVX2");
    simd::set_level(simd::Level::kAvx2);
    return;
  }
  throw UsageError("unknown --simd '" + name + "' (off|scalar|avx2|auto)");
}

/// Parses "MxN" into dimensions.
std::pair<std::size_t, std::size_t> parse_shape(const std::string& s) {
  const auto x = s.find('x');
  HJSVD_ENSURE(x != std::string::npos && x > 0 && x + 1 < s.size(),
               "--generate expects ROWSxCOLS, e.g. 512x128");
  return {static_cast<std::size_t>(std::stoull(s.substr(0, x))),
          static_cast<std::size_t>(std::stoull(s.substr(x + 1)))};
}

/// Loads the --batch workload: either every .mtx file of a directory
/// (sorted by name, so runs are reproducible) or a generated spec like
/// "24x16*6,64x48" — comma-separated ROWSxCOLS shapes with an optional
/// *COUNT repeat, drawn from --seed.  Returns (matrix, label) pairs.
std::vector<std::pair<Matrix, std::string>> load_batch(
    const std::string& spec, std::uint64_t seed) {
  std::vector<std::pair<Matrix, std::string>> items;
  if (std::filesystem::is_directory(spec)) {
    std::vector<std::filesystem::path> paths;
    for (const auto& entry : std::filesystem::directory_iterator(spec))
      if (entry.is_regular_file() && entry.path().extension() == ".mtx")
        paths.push_back(entry.path());
    std::sort(paths.begin(), paths.end());
    if (paths.empty())
      throw UsageError("--batch: no .mtx files in directory '" + spec + "'");
    for (const auto& p : paths)
      items.emplace_back(read_matrix_market_file(p.string()),
                         p.filename().string());
    return items;
  }
  Rng rng(seed);
  std::size_t start = 0;
  while (start <= spec.size()) {
    const auto comma = spec.find(',', start);
    const std::string token = spec.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    start = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (token.empty())
      throw UsageError("--batch: empty entry in spec '" + spec + "'");
    const auto star = token.find('*');
    std::size_t repeat = 1;
    std::string shape = token;
    if (star != std::string::npos) {
      shape = token.substr(0, star);
      try {
        repeat = static_cast<std::size_t>(std::stoull(token.substr(star + 1)));
      } catch (const std::exception&) {
        repeat = 0;
      }
      if (repeat == 0)
        throw UsageError("--batch: bad repeat in '" + token +
                         "' (want ROWSxCOLS*COUNT)");
    }
    std::size_t rows = 0, cols = 0;
    try {
      // parse_shape's stoull throws std::invalid_argument on non-digits.
      std::tie(rows, cols) = parse_shape(shape);
    } catch (const std::exception&) {
      throw UsageError("--batch: '" + token +
                       "' is neither a directory nor ROWSxCOLS[*COUNT]");
    }
    for (std::size_t k = 0; k < repeat; ++k)
      items.emplace_back(random_gaussian(rows, cols, rng),
                         shape + "#" + std::to_string(k));
  }
  return items;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("hjsvd_cli: SVD of Matrix Market files via Hestenes-Jacobi");
  try {
    cli.add_option("input", "", "input .mtx file");
    cli.add_option("method", "hestenes",
                   "hestenes|plain|two-sided|golub-kahan (aliases: "
                   "modified, parallel-modified and block for hestenes; "
                   "parallel for plain; twosided; gk)");
    cli.add_option("threads", "auto",
                   "worker threads of --batch (positive integer, or 'auto' "
                   "= hardware concurrency) and of the plain method's rounds "
                   "(inputs with rows x floor(cols/2) >= 16384; 'auto' and "
                   "1 run them inline)");
    cli.add_option("simd", "auto",
                   "SIMD kernel dispatch level: off|scalar|avx2|auto "
                   "(auto = HJSVD_SIMD env var, else best available; every "
                   "level is bitwise identical)");
    cli.add_option("simd-relaxed", "false",
                   "opt into the relaxed SIMD tier: 4-lane-split Gram/dot "
                   "reductions (faster, deterministic, but not bitwise "
                   "identical to the strict scalar reference)");
    cli.add_option("values", "10", "how many singular values to print");
    cli.add_option("sweeps", "30", "max sweeps (Jacobi methods)");
    cli.add_option("tolerance", "1e-13",
                   "convergence tolerance (positive finite number)");
    cli.add_option("write-u", "", "write left singular vectors to .mtx");
    cli.add_option("write-v", "", "write right singular vectors to .mtx");
    cli.add_option("fpga-sim", "false",
                   "run the cycle-accurate accelerator sim on the same "
                   "matrix; with --trace-out/--metrics-out its spans, "
                   "counter track and sim.* metrics are recorded too");
    cli.add_option("fpga-estimate", "false",
                   "also print the accelerator model's time for this shape");
    cli.add_option("batch", "",
                   "decompose a whole batch on the work-stealing pool: a "
                   "directory of .mtx files, or a generated spec like "
                   "24x16*6,64x48 (uses --seed)");
    cli.add_option("generate", "",
                   "generate a gaussian ROWSxCOLS matrix instead of reading");
    cli.add_option("cond", "0",
                   "--generate: target condition number (geometric singular-"
                   "value decay); 0 = plain gaussian entries");
    cli.add_option("seed", "1", "generation seed");
    cli.add_option("output", "", "output path for --generate");
    cli.add_option("trace-out", "",
                   "write a Chrome trace-event JSON of the run (open in "
                   "Perfetto; see docs/OBSERVABILITY.md)");
    cli.add_option("metrics-out", "",
                   "write run metrics as hjsvd.metrics.v1 JSON");
    cli.add_option("obs-live", "",
                   "live-telemetry directory: snapshots.jsonl + metrics.prom "
                   "sampled while the run is in flight, SIGUSR1-triggered "
                   "dump_NNNN.*.json dumps, and final_trace/final_metrics "
                   "artifacts (implies trace+metrics recording; see "
                   "docs/OBSERVABILITY.md)");
    cli.add_option("obs-ring-events", "0",
                   "flight-recorder mode: per-thread trace ring capacity in "
                   "events (drop-oldest with exact drop counters, serialized "
                   "as hjsvd.trace.v3); 0 = unbounded v2 recording");
    cli.add_option("obs-snapshot-ms", "100",
                   "--obs-live sampling period in milliseconds");
    cli.add_option("deadline-s", "0",
                   "watchdog wall-clock budget in seconds; overruns are "
                   "flagged (obs.watchdog.* metrics + instant trace event), "
                   "never enforced.  0 disables");
    cli.add_option("num-probes", "",
                   "numerical-health probes: 'on' (default stride), a "
                   "positive sampling stride, or 'off'.  Emits svd.num.* "
                   "metrics and a numerics summary; read-only — results are "
                   "bitwise identical probes on or off (see "
                   "docs/OBSERVABILITY.md)");
    cli.parse(argc, argv);

    if (const auto shape = cli.get("generate"); !shape.empty()) {
      const auto [rows, cols] = parse_shape(shape);
      Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
      const double kappa = parse_nonneg_double(cli, "cond");
      if (kappa != 0.0 && kappa < 1.0)
        throw UsageError("--cond must be >= 1 (or 0 for plain gaussian), "
                         "got '" + cli.get("cond") + "'");
      const Matrix a = kappa > 1.0 ? random_conditioned(rows, cols, kappa, rng)
                                   : random_gaussian(rows, cols, rng);
      const auto out = cli.get("output");
      HJSVD_ENSURE(!out.empty(), "--generate requires --output PATH");
      write_matrix_market_file(out, a);
      std::cout << "wrote " << rows << " x " << cols << " matrix to " << out;
      if (kappa > 1.0) std::cout << " (condition number ~" << kappa << ")";
      std::cout << '\n';
      return 0;
    }

    apply_simd_level(cli.get("simd"));

    SvdOptions opt;
    opt.method = parse_method(cli.get("method"));
    opt.simd_relaxed = cli.get_bool("simd-relaxed");
    opt.max_sweeps = static_cast<std::size_t>(cli.get_int("sweeps"));
    opt.tolerance = parse_positive_double(cli, "tolerance");
    opt.threads = parse_count(cli, "threads", 0);
    opt.compute_u = !cli.get("write-u").empty();
    opt.compute_v = !cli.get("write-v").empty();

    // Observability sinks.  Output files open *before* the decomposition so
    // an unwritable path is a usage error (exit 2) up front, not a wasted
    // run that fails at the end.
    const auto trace_path = cli.get("trace-out");
    const auto metrics_path = cli.get("metrics-out");
    std::ofstream trace_file, metrics_file;
    if (!trace_path.empty()) {
      trace_file.open(trace_path);
      if (!trace_file)
        throw UsageError("--trace-out: cannot open '" + trace_path +
                         "' for writing");
    }
    if (!metrics_path.empty()) {
      metrics_file.open(metrics_path);
      if (!metrics_file)
        throw UsageError("--metrics-out: cannot open '" + metrics_path +
                         "' for writing");
    }
    const std::size_t ring_events = parse_nonneg_count(cli, "obs-ring-events");
    const std::size_t snapshot_ms = parse_count(cli, "obs-snapshot-ms", 100);
    const double deadline_s = parse_nonneg_double(cli, "deadline-s");
    const auto live_dir = cli.get("obs-live");
    obs::TraceRecorder recorder(ring_events);
    obs::MetricsRegistry registry;
    if (!trace_path.empty()) opt.trace = &recorder;
    if (!metrics_path.empty()) opt.metrics = &registry;
    if (!live_dir.empty()) {
      // Live mode records unconditionally; --trace-out/--metrics-out remain
      // optional end-of-run copies.  A missing directory is created — but
      // only one level deep: a missing *parent* means a mistyped path, not
      // an intent to create a whole tree, and stays a usage error (exit 2),
      // as does an unwritable parent.
      namespace fs = std::filesystem;
      const fs::path dir(live_dir);
      if (fs::exists(dir)) {
        if (!fs::is_directory(dir))
          throw UsageError("--obs-live: '" + live_dir +
                           "' exists and is not a directory");
      } else {
        const fs::path parent =
            dir.has_parent_path() ? dir.parent_path() : fs::path(".");
        if (!fs::is_directory(parent))
          throw UsageError("--obs-live: parent directory '" +
                           parent.string() + "' does not exist");
        std::error_code ec;
        if (!fs::create_directory(dir, ec))
          throw UsageError("--obs-live: cannot create directory '" +
                           live_dir + "': " + ec.message());
      }
      opt.trace = &recorder;
      opt.metrics = &registry;
    }
    const std::size_t probe_stride = parse_num_probes(cli);
    std::optional<obs::Watchdog> watchdog;
    if (!live_dir.empty() || deadline_s > 0.0 || probe_stride > 0) {
      obs::Watchdog::Config wd_cfg;
      wd_cfg.deadline_s = deadline_s;
      watchdog.emplace(wd_cfg, opt.trace, opt.metrics);
      opt.watchdog = &*watchdog;
    }
    std::optional<obs::NumericsProbe> probe;
    if (probe_stride > 0) {
      obs::NumericsProbe::Config probe_cfg;
      probe_cfg.stride = probe_stride;
      probe.emplace(probe_cfg, opt.metrics, opt.trace, opt.watchdog);
      opt.numerics = &*probe;
    }
    std::unique_ptr<obs::SnapshotExporter> exporter;
    if (!live_dir.empty()) {
      obs::LiveConfig live_cfg;
      live_cfg.dir = live_dir;
      live_cfg.interval = std::chrono::milliseconds(snapshot_ms);
      exporter = std::make_unique<obs::SnapshotExporter>(
          live_cfg, &recorder, &registry, opt.watchdog);
      obs::install_dump_signal_handler();
      std::cout << "live telemetry in " << live_dir << " (every "
                << snapshot_ms << " ms; SIGUSR1 dumps)\n";
    }
    if (!obs::kEnabled &&
        (!trace_path.empty() || !metrics_path.empty() || !live_dir.empty() ||
         probe_stride > 0))
      std::cerr << "hjsvd_cli: warning: observability was compiled out "
                   "(HJSVD_OBS=0); trace/metrics/probe outputs will be "
                   "empty\n";

    const auto write_sinks = [&] {
      if (exporter != nullptr) {
        exporter->stop();
        std::ofstream f(live_dir + "/final_trace.json");
        recorder.write(f);
        std::ofstream g(live_dir + "/final_metrics.json");
        registry.write(g);
        std::cout << "live telemetry: " << exporter->samples()
                  << " snapshots, " << exporter->dumps() << " dumps, "
                  << recorder.dropped_events_total()
                  << " ring-dropped events in " << live_dir << '\n';
      }
      if (opt.watchdog != nullptr) {
        if (watchdog->deadline_exceeded())
          std::cout << "watchdog: DEADLINE EXCEEDED (budget "
                    << format_duration(deadline_s) << ")\n";
        if (watchdog->stalled())
          std::cout << "watchdog: convergence stall flagged ("
                    << watchdog->stall_events() << " episode(s))\n";
        if (watchdog->divergence())
          std::cout << "watchdog: DIVERGENCE flagged (off-diagonal mass "
                       "increased across sweeps)\n";
        if (watchdog->orthogonality())
          std::cout << "watchdog: ORTHOGONALITY drift flagged at finalize\n";
      }
      if (probe.has_value()) {
        std::cout << "numerics: " << probe->samples()
                  << " sampled pairs (stride " << probe->stride()
                  << "), cancellation "
                  << format_fixed(probe->cancellation_frac() * 100.0, 1)
                  << "%, tiny-angle "
                  << format_fixed(probe->tiny_angle_frac() * 100.0, 1)
                  << "%, near-pi/4 "
                  << format_fixed(probe->near_pi4_frac() * 100.0, 1)
                  << "%, cond est " << format_sci(probe->condition_estimate());
        if (probe->orthogonality_drift() >= 0.0)
          std::cout << ", V drift " << format_sci(probe->orthogonality_drift());
        if (probe->backward_error() >= 0.0)
          std::cout << ", backward error "
                    << format_sci(probe->backward_error());
        if (probe->nonfinite_events() > 0)
          std::cout << ", " << probe->nonfinite_events()
                    << " NON-FINITE event(s)";
        std::cout << '\n';
      }
      if (!trace_path.empty()) {
        recorder.write(trace_file);
        trace_file << '\n';
        HJSVD_ENSURE(static_cast<bool>(trace_file),
                     "failed writing --trace-out file");
        std::cout << "wrote trace to " << trace_path << '\n';
      }
      if (!metrics_path.empty()) {
        registry.write(metrics_file);
        metrics_file << '\n';
        HJSVD_ENSURE(static_cast<bool>(metrics_file),
                     "failed writing --metrics-out file");
        std::cout << "wrote metrics to " << metrics_path << '\n';
      }
    };

    if (const auto spec = cli.get("batch"); !spec.empty()) {
      if (!cli.get("input").empty())
        throw UsageError("--batch and --input are mutually exclusive");
      if (opt.compute_u || opt.compute_v)
        throw UsageError("--write-u/--write-v apply to single-matrix runs, "
                         "not --batch");
      if (cli.get_bool("fpga-sim") || cli.get_bool("fpga-estimate"))
        throw UsageError("--fpga-sim/--fpga-estimate apply to single-matrix "
                         "runs, not --batch");
      auto items = load_batch(
          spec, static_cast<std::uint64_t>(cli.get_int("seed")));
      std::vector<Matrix> batch;
      batch.reserve(items.size());
      for (auto& [matrix, label] : items) batch.push_back(std::move(matrix));
      std::cout << "batch of " << batch.size() << " matrices from " << spec
                << '\n';

      Timer timer;
      SvdBatchStats stats;
      // The CLI batch path runs on the same warm engine the serve daemon
      // uses (resident pool + per-worker workspaces), so one-shot runs
      // exercise exactly the serving code path.
      EngineInstance engine(EngineConfig{.threads = opt.threads});
      const auto results = engine.decompose_batch(batch, opt, &stats);
      const double seconds = timer.seconds();

      AsciiTable table({"item", "shape", "sweeps", "converged", "sigma[0]"});
      table.set_caption(std::string(svd_method_name(opt.method)) +
                        " over the work-stealing batch pool");
      for (std::size_t i = 0; i < results.size(); ++i)
        table.add_row({items[i].second,
                       std::to_string(batch[i].rows()) + "x" +
                           std::to_string(batch[i].cols()),
                       std::to_string(results[i].sweeps),
                       results[i].converged ? "yes" : "NO",
                       results[i].singular_values.empty()
                           ? "-"
                           : format_sci(results[i].singular_values[0], 9)});
      std::cout << table.to_string() << '\n';
      std::cout << "scheduler: " << stats.workers << " workers ("
                << stats.requested_workers << " requested), " << stats.steals
                << " steals, " << format_duration(seconds)
                << " wall\n";
      if (opt.metrics != nullptr)
        registry.gauge_set("cli.wall_s", "s", seconds);
      write_sinks();
      return 0;
    }

    const auto input = cli.get("input");
    HJSVD_ENSURE(!input.empty(),
                 "need --input FILE.mtx (or --generate / --batch)");
    const Matrix a = read_matrix_market_file(input);
    std::cout << "read " << a.rows() << " x " << a.cols() << " matrix from "
              << input << '\n';

    Timer timer;
    const SvdResult r = svd(a, opt);
    const double seconds = timer.seconds();
    std::cout << svd_method_name(opt.method) << ": " << r.sweeps
              << " sweeps, " << format_duration(seconds)
              << (r.converged ? ", converged" : ", NOT converged") << '\n';
    const auto count = std::min<std::size_t>(
        static_cast<std::size_t>(cli.get_int("values")),
        r.singular_values.size());
    for (std::size_t i = 0; i < count; ++i)
      std::cout << "sigma[" << i << "] = " << format_sci(r.singular_values[i], 9)
                << '\n';

    if (const auto path = cli.get("write-u"); !path.empty()) {
      write_matrix_market_file(path, r.u);
      std::cout << "wrote U to " << path << '\n';
    }
    if (const auto path = cli.get("write-v"); !path.empty()) {
      write_matrix_market_file(path, r.v);
      std::cout << "wrote V to " << path << '\n';
    }

    if (cli.get_bool("fpga-estimate")) {
      const arch::AcceleratorConfig cfg;
      const auto t = arch::estimate_timing(cfg, a.rows(), a.cols());
      std::cout << "\nFPGA accelerator model (paper configuration):\n"
                << arch::format_timing(t, a.rows(), a.cols())
                << "speedup over this run: "
                << format_fixed(seconds / t.seconds, 1) << "x\n";
      if (opt.metrics != nullptr) {
        // The analytic model's FIFO bound, in rotation groups and in single
        // rotations.
        registry.gauge_set("sim.model.cycles.total", "cycles",
                           static_cast<double>(t.total));
        registry.gauge_set("sim.model.seconds", "s", t.seconds);
        registry.gauge_set("sim.model.param_fifo.occupancy",
                           "rotation_groups",
                           static_cast<double>(t.param_fifo_occupancy));
        registry.gauge_set(
            "sim.model.param_fifo.occupancy_rotations", "rotations",
            static_cast<double>(t.param_fifo_occupancy_rotations));
      }
    }

    if (cli.get_bool("fpga-sim")) {
      arch::AcceleratorConfig cfg;
      cfg.obs.trace = opt.trace;
      cfg.obs.metrics = opt.metrics;
      const auto sim = arch::simulate_accelerator(a, cfg);
      std::cout << "\nFPGA accelerator sim: " << sim.total_cycles
                << " cycles (" << format_duration(sim.seconds)
                << " simulated), param-FIFO high-water "
                << sim.param_fifo_high_water_rotations
                << " rotations, update utilization "
                << format_fixed(sim.update_utilization * 100.0, 1) << "%\n";
    }

    if (opt.metrics != nullptr)
      registry.gauge_set("cli.wall_s", "s", seconds);
    write_sinks();
    return 0;
  } catch (const UsageError& e) {
    std::cerr << "hjsvd_cli: " << e.what() << "\n\n" << cli.help();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "hjsvd_cli: " << e.what() << '\n';
    return 1;
  }
}
