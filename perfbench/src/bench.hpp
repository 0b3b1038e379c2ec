// Shared types of the user-facing benchmark: configuration, metrics,
// correctness tally, the workload interface and the layer probes.
//
// A workload owns its seeded inputs and one timed loop over the public entry
// point it stands for (svd(), svd_batch() or serve::SvdServer).  The layer
// probes take the workload's distinct inputs and time the public functions
// of each layer (linalg, svd, api, serve) on them from outside; nothing is
// instrumented inside the library beyond the sinks it already exposes.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "api/svd.hpp"
#include "linalg/matrix.hpp"
#include "spans.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;      ///< Smoke-test sizes (every matrix a few dozen wide).
  bool corrupt = false;   ///< Flip one output bit before the check.
  bool setup_only = false;
  std::size_t threads = 1;      ///< min(4, nproc): svd_batch / probe threads.
  std::string spans_out;        ///< Traced run: where to write the spans.
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  ///< Sample count or provenance, printed in the report.
};

/// Correctness over checked outputs.  `ops_failed` counts timed operations
/// whose output failed a check; `checks_failed` counts failed check lines.
struct Checks {
  std::uint64_t ops_failed = 0;
  std::uint64_t checks_failed = 0;
  double backward_err = 0.0;
  double sigma_rel_err = 0.0;
  /// Records one check; logs the first few failures to stderr.
  bool expect(bool ok, const std::string& what);
};

/// One matrix with the options it is decomposed with.
struct Input {
  hjsvd::Matrix a;
  hjsvd::SvdOptions options;
};

/// Outcome of one timed loop.
struct LoopResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;          ///< Errors, rejections, wrong outputs.
  std::uint64_t wrong = 0;           ///< Outputs that differed from the reference.
  double throughput_per_s = 0.0;     ///< Decompositions or ok replies per s.
  std::vector<double> latency_ms;    ///< One sample per operation.
  std::vector<double> gen_lag_ms;    ///< How late each operation was sent.
  double mean_op_ms = 0.0;           ///< For the trace-overhead comparison.
  std::vector<Metric> layer;         ///< Layer metrics only this loop sees.
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Construction of the entry object plus its first, cold operation (s).
  virtual double setup() = 0;
  /// Warms up, then runs the timed loop for `seconds`.  With `spans` set the
  /// loop attaches the library's sinks and records one span tree per op.
  virtual LoopResult run(double seconds, Spans* spans) = 0;
  /// Checks the outputs the loops kept against offline references;
  /// adds the operations whose output failed to checks.ops_failed.
  virtual void check(Checks& checks) = 0;
  /// Distinct inputs, for the layer probes.
  virtual const std::vector<Input>& inputs() const = 0;
  /// Layer whose public call the loop's ops enter ("api" or "serve").
  virtual const char* entry_layer() const = 0;
};

std::unique_ptr<Workload> make_workload(const Config& cfg);

/// ns_per_pair at n = 256 over n = 255.  Run first in a fresh process: the
/// penalty depends on where the heap places the working matrices, and a
/// fresh heap places them the same way every run.
Metric stride_probe(const Config& cfg);

/// Layer probes over a workload's inputs (traced run only).
/// Metrics named in `skip` were measured by the loop and are not probed.
std::vector<Metric> layer_probes(const Config& cfg,
                                 const std::vector<Input>& inputs,
                                 const std::set<std::string>& skip);

// --- helpers shared by the workloads and the probes -----------------------

/// Bitwise equality of two decompositions (values, vectors, sweep count).
bool same_bits(const hjsvd::SvdResult& a, const hjsvd::SvdResult& b);

/// Scales the first singular value by 1 + 1e-6: breaks bit identity and
/// the accuracy check.
void corrupt_output(hjsvd::SvdResult& r);

/// hjsvd.serve.v1 request frame for an input, id <prefix><index>, every
/// number with 17 significant digits.
std::string make_frame(std::string_view id_prefix, std::size_t index,
                       const Input& in);

/// Reply payload with the run-dependent latency_ms tail stripped, so two
/// replies over the same result compare equal exactly when they are
/// bitwise equal.
std::string payload_of(const std::string& reply);

/// q-quantile (0..1) by linear interpolation; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

}  // namespace perfbench
