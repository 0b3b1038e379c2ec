// hjsvd_report — offline trace/metrics analyzer and perf-regression gate.
//
// Analyze mode: ingest one run's recorded artifacts and emit the
// hjsvd.report.v2 document plus a human-readable summary.
//
//   hjsvd_report --trace run_trace.json --metrics run_metrics.json
//       --out run_report.json
//
// Compare mode: diff two serialized reports of the same workload and fail
// on configurable regressions.
//
//   hjsvd_report --compare baseline_report.json candidate_report.json
//       --max-wall-regress-frac 0.10
//
// Exit codes: 0 success / no regression, 1 runtime error, 2 usage error or
// malformed / wrong-schema input, 3 regression detected in compare mode.
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "report/json.hpp"
#include "report/report.hpp"

using namespace hjsvd;

namespace {

/// Bad command-line usage: reported with the full help text and a distinct
/// exit code (2), unlike runtime failures (1).
class UsageError : public Error {
 public:
  using Error::Error;
};

struct CompareArgs {
  bool requested = false;
  std::string baseline;
  std::string candidate;
};

/// `--compare BASELINE CANDIDATE` takes two positional paths, which the
/// flag-value Cli parser cannot express; peel it off before Cli::parse.
CompareArgs extract_compare(std::vector<const char*>* argv) {
  CompareArgs out;
  for (std::size_t i = 0; i < argv->size(); ++i) {
    if (std::strcmp((*argv)[i], "--compare") != 0) continue;
    if (i + 2 >= argv->size())
      throw UsageError("--compare expects two report files: "
                       "--compare BASELINE.json CANDIDATE.json");
    out.requested = true;
    out.baseline = (*argv)[i + 1];
    out.candidate = (*argv)[i + 2];
    argv->erase(argv->begin() + static_cast<std::ptrdiff_t>(i),
                argv->begin() + static_cast<std::ptrdiff_t>(i + 3));
    return out;
  }
  return out;
}

/// Loads and parses a JSON input; unreadable or malformed files are usage
/// errors (exit 2) — the operator handed the tool a bad artifact.
report::JsonValue load_json(const std::string& path) {
  try {
    return report::parse_json_file(path);
  } catch (const Error& e) {
    throw UsageError(e.what());
  }
}

/// Analysis of a parsed document can still throw plain hjsvd::Error — e.g. a
/// non-numeric series point surfacing from JsonValue::as_number.  The
/// documented contract is exit 2 for any malformed input, so rewrap those
/// the same way load_json rewraps parse errors.
template <typename Fn>
auto malformed_is_usage(const std::string& inputs, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const UsageError&) {
    throw;
  } catch (const Error& e) {
    throw UsageError(inputs + ": malformed document: " + e.what());
  }
}

report::RunReport load_report(const std::string& path) {
  return malformed_is_usage(
      path, [&] { return report::report_from_json(load_json(path)); });
}

int run_compare(const CompareArgs& args, const report::CompareThresholds& t) {
  const report::RunReport baseline = load_report(args.baseline);
  const report::RunReport candidate = load_report(args.candidate);
  const report::CompareResult result =
      report::compare_reports(baseline, candidate, t);
  std::cout << "comparing " << args.baseline << " (baseline) vs "
            << args.candidate << " (candidate)\n";
  for (const std::string& line : result.findings)
    std::cout << "  " << line << '\n';
  if (result.regressed) {
    std::cout << "RESULT: regression detected\n";
    return 3;
  }
  std::cout << "RESULT: no regression\n";
  return 0;
}

int run_analyze(const Cli& cli) {
  const std::string trace_path = cli.get("trace");
  const std::string metrics_path = cli.get("metrics");
  if (trace_path.empty() || metrics_path.empty())
    throw UsageError("analyze mode needs both --trace and --metrics "
                     "(or use --compare BASELINE CANDIDATE)");
  const report::JsonValue trace_doc = load_json(trace_path);
  const report::JsonValue metrics_doc = load_json(metrics_path);
  const report::RunReport run =
      malformed_is_usage(trace_path + " + " + metrics_path, [&] {
        return report::analyze_run(trace_doc, metrics_doc);
      });
  std::cout << report::report_table(run);
  const std::string out = cli.get("out");
  if (!out.empty()) {
    write_file(out, report::report_json(run));
    std::cout << "report written to " << out << '\n';
  } else {
    std::cout << '\n' << report::report_json(run);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("hjsvd_report: analyze recorded hjsvd traces/metrics and gate "
          "performance regressions.\n"
          "Analyze: hjsvd_report --trace T.json --metrics M.json "
          "[--out R.json]\n"
          "Compare: hjsvd_report --compare BASELINE.json CANDIDATE.json "
          "(exit 3 on regression)");
  try {
    cli.add_option("trace", "",
                   "hjsvd.trace.v1/v2/v3 JSON file (analyze mode)");
    cli.add_option("metrics", "", "hjsvd.metrics.v1 JSON file (analyze mode)");
    cli.add_option("out", "",
                   "write the hjsvd.report.v2 JSON here (default: stdout)");
    cli.add_option("max-wall-regress-frac", "0.10",
                   "compare: allowed fractional wall-clock slowdown");
    cli.add_option("max-sweep-increase", "0",
                   "compare: allowed extra sweeps to convergence");
    cli.add_option("max-rotation-increase-frac", "0.05",
                   "compare: allowed fractional rotation-count growth");
    cli.add_option("max-accuracy-regress-frac", "0.50",
                   "compare: allowed fractional growth of the numerics "
                   "accuracy leaves (backward error, orthogonality drift)");
    cli.add_option("accuracy-noise-floor", "1e-12",
                   "compare: absolute accuracy slack below which a relative "
                   "regression is rounding noise, not a finding");

    std::vector<const char*> args(argv, argv + argc);
    const CompareArgs compare = extract_compare(&args);
    cli.parse(static_cast<int>(args.size()), args.data());

    report::CompareThresholds thresholds;
    thresholds.max_wall_regress_frac = cli.get_double("max-wall-regress-frac");
    thresholds.max_sweep_increase =
        static_cast<std::uint64_t>(cli.get_int("max-sweep-increase"));
    thresholds.max_rotation_increase_frac =
        cli.get_double("max-rotation-increase-frac");
    thresholds.max_accuracy_regress_frac =
        cli.get_double("max-accuracy-regress-frac");
    thresholds.accuracy_noise_floor = cli.get_double("accuracy-noise-floor");

    if (compare.requested) return run_compare(compare, thresholds);
    return run_analyze(cli);
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n\n" << cli.help();
    return 2;
  } catch (const report::SchemaError& e) {
    std::cerr << "error: " << e.what() << "\n\n" << cli.help();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
