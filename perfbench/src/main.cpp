// perfbench: one workload per invocation.
//
//   perfbench --workload dense-square|batch-mixed|serve-small --seed N
//             --seconds S --trace 0|1 [--spans-out PATH]
//             [--setup-only] [--tiny] [--corrupt]
//
// Untraced (--trace 0): the timed loop, then the correctness checks, then
// the end-to-end metrics.  Traced (--trace 1): an untraced and a traced loop
// of S/2 each (their ratio is the tracing overhead), the checks, and the
// layer probes.  --setup-only prints the set-up time of the process's first
// entry object.
// Every metric goes to stdout as one "metric" line; the last line is a JSON
// object with "correct", "attempted", "failed" and "metrics".
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n";
  std::exit(2);
}

Config parse(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") cfg.workload = value();
    else if (flag == "--seed") cfg.seed = std::stoull(value());
    else if (flag == "--seconds") cfg.seconds = std::stod(value());
    else if (flag == "--trace") cfg.trace = value() == "1";
    else if (flag == "--setup-only") cfg.setup_only = true;
    else if (flag == "--tiny") cfg.tiny = true;
    else if (flag == "--corrupt") cfg.corrupt = true;
    else if (flag == "--spans-out") cfg.spans_out = value();
    else usage("unknown flag " + flag);
  }
  if (cfg.seconds <= 0) usage("--seconds must be positive");
  cfg.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  return cfg;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string samples(std::size_t n) { return "n=" + std::to_string(n); }

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = parse(argc, argv);
  const Metric stride = cfg.trace ? stride_probe(cfg) : Metric{};
  std::unique_ptr<Workload> wl = make_workload(cfg);
  if (!wl) usage("unknown workload '" + cfg.workload + "'");

  if (cfg.setup_only) {
    // Only the first set-up of a process is cold; run.py takes the median
    // over fresh processes.
    std::cout << std::setprecision(17) << wl->setup() << "\n";
    return 0;
  }

  std::vector<Metric> metrics;
  LoopResult loop;
  Checks checks;
  if (!cfg.trace) {
    loop = wl->run(cfg.seconds, nullptr);
    wl->check(checks);
    const std::size_t n = loop.latency_ms.size();
    metrics = {
        {"throughput_per_s", "ops/s", loop.throughput_per_s,
         samples(loop.attempted) + " operations"},
        {"latency_p50_ms", "ms", quantile(loop.latency_ms, 0.50), samples(n)},
        {"latency_p99_ms", "ms", quantile(loop.latency_ms, 0.99),
         samples(n) + ", " + std::to_string(n / 100) + " beyond p99"},
        {"peak_rss_mb", "MB", peak_rss_mb(), "ru_maxrss"},
    };
    metrics.insert(metrics.end(), loop.layer.begin(), loop.layer.end());
  } else {
    const LoopResult base = wl->run(cfg.seconds / 2, nullptr);
    Spans spans;
    loop = wl->run(cfg.seconds / 2, &spans);
    wl->check(checks);

    const Budget b = attribute(spans.all());
    double inner = 0.0;
    for (const auto& [layer, ms] : b.by_layer_ms)
      if (layer != wl->entry_layer() && layer != "bench") inner += ms;
    const double ops = static_cast<double>(std::max<std::uint64_t>(b.ops, 1));
    const std::string per_op = "per op, " + samples(b.ops) + " traced ops";
    const auto entry = b.by_layer_ms.find(wl->entry_layer());
    metrics = {
        {"budget.entry_self_ms", "ms",
         entry == b.by_layer_ms.end() ? 0.0 : entry->second / ops,
         std::string(wl->entry_layer()) + " self time, " + per_op},
        {"budget.inner_ms", "ms", inner / ops, "layers below the entry, " + per_op},
        {"budget.unaccounted_frac", "ratio",
         b.root_ms > 0 ? b.unaccounted_ms / b.root_ms : 0.0, "root self time / root time"},
        {"bench.gen_lag_p99_ms", "ms", quantile(loop.gen_lag_ms, 0.99),
         samples(loop.gen_lag_ms.size())},
        {"bench.trace_overhead_frac", "ratio", loop.mean_op_ms / base.mean_op_ms - 1.0,
         "traced/untraced mean op time - 1"},
    };
    for (const auto& [name, ms] : b.by_name_ms)
      std::cout << "span " << name << " self_ms_per_op " << ms / ops << "\n";
    std::cout << "span (unaccounted) self_ms_per_op " << b.unaccounted_ms / ops << "\n";
    std::set<std::string> measured;
    for (const Metric& m : loop.layer) {
      measured.insert(m.name);
      metrics.push_back(m);
    }
    for (Metric& m : layer_probes(cfg, wl->inputs(), measured))
      metrics.push_back(std::move(m));
    metrics.push_back(stride);
    if (!cfg.spans_out.empty()) spans.write_json(cfg.spans_out);
    loop.attempted += base.attempted;
    loop.failed += base.failed;
    loop.wrong += base.wrong;
  }

  // Rejected or expired requests count as failed; only a wrong output makes
  // the run incorrect.
  const std::uint64_t failed = std::min(loop.attempted, loop.failed + checks.ops_failed);
  const bool correct =
      loop.wrong == 0 && checks.ops_failed == 0 && checks.checks_failed == 0;
  metrics.insert(metrics.end(), {
      {"failed_frac", "ratio",
       static_cast<double>(failed) / static_cast<double>(loop.attempted),
       samples(loop.attempted) + " attempted"},
      {"backward_err", "ratio", checks.backward_err, "max over checked outputs"},
      {"sigma_rel_err", "ratio", checks.sigma_rel_err, "max over checked outputs"},
  });

  std::ostringstream json;
  json << std::setprecision(17) << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << loop.attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << "metric " << cfg.workload << " " << m.name << " = "
              << std::setprecision(6) << m.value << " " << m.unit << " (" << m.note
              << ")\n";
    json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << m.value
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}
