// Work-stealing batch scheduler benchmark (svd_batch).
//
// Runs an adversarial mixed batch designed to defeat static LPT sharding:
// equal-shape matrices alternating between slow-converging (gaussian) and
// near-instant (diagonal) — identical cost *estimates*, very different
// runtimes — plus one large matrix that dominates the batch's total cost
// and so sets the tail of the wave (every item runs single-threaded).  For
// each thread count it records wall clock, throughput, steal counts and
// per-worker idle time, and checks every result bit-for-bit against the
// per-item sequential svd() reference — the scheduler must never change a
// single bit.
//
// Results go to BENCH_batch_sweep.json (gated by scripts/bench_gate.py).
// The steal counts and bit-identity checks are the meaningful assertions;
// speedups depend on how many cores the host gives the run.
#include <algorithm>
#include <cstddef>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/svd.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "fp/softfloat.hpp"
#include "linalg/generate.hpp"
#include "obs/manifest.hpp"

using namespace hjsvd;

namespace {

bool values_bit_identical(const SvdResult& a, const SvdResult& b) {
  if (a.singular_values.size() != b.singular_values.size()) return false;
  for (std::size_t i = 0; i < a.singular_values.size(); ++i)
    if (fp::to_bits(a.singular_values[i]) != fp::to_bits(b.singular_values[i]))
      return false;
  return true;
}

std::string fmt(double x) {
  std::ostringstream os;
  os.precision(6);
  os << x;
  return os.str();
}

std::string manifest(const std::string& config) {
  obs::RunManifest m;
  m.tool = "bench_batch_sweep";
  m.config = config;
  return obs::manifest_json(m);
}

/// A matrix whose columns are already orthogonal: the Hestenes engines
/// converge on it almost immediately, while its cost *estimate* (shape
/// only) equals a gaussian of the same size — exactly the misprediction
/// work stealing exists to absorb.
Matrix fast_diagonal(std::size_t n) {
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i)
    d(i, i) = 1.0 + static_cast<double>(n - i);
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("Work-stealing svd_batch scheduler on an adversarial mixed batch");
  cli.add_option("count", "16", "small matrices (alternating slow/fast)");
  cli.add_option("small-n", "48", "size of the small square matrices");
  cli.add_option("large-n", "96", "size of the dominant square matrix");
  cli.add_option("threads", "1,2,4", "thread counts to benchmark");
  cli.add_option("reps", "3", "repetitions per timing (best-of)");
  cli.add_option("out", "BENCH_batch_sweep.json", "JSON output path");
  cli.parse(argc, argv);
  const auto count = static_cast<std::size_t>(cli.get_int("count"));
  const auto small_n = static_cast<std::size_t>(cli.get_int("small-n"));
  const auto large_n = static_cast<std::size_t>(cli.get_int("large-n"));
  const auto threads = cli.get_int_list("threads");
  const int reps = static_cast<int>(cli.get_int("reps"));
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::cout << "== Work-stealing batch scheduler ==\n"
            << "hardware threads available: " << hw_threads << "\n\n";

  Rng rng(4242);
  std::vector<Matrix> batch;
  for (std::size_t i = 0; i < count; ++i)
    batch.push_back(i % 2 == 0 ? random_gaussian(small_n, small_n, rng)
                               : fast_diagonal(small_n));
  batch.push_back(random_gaussian(large_n, large_n, rng));

  // Per-item sequential reference: the contract every scheduled run must
  // reproduce bit-for-bit.
  std::vector<SvdResult> refs;
  refs.reserve(batch.size());
  for (const Matrix& a : batch) refs.push_back(svd(a, {}));

  std::ostringstream json;
  json << "{\n  \"bench\": \"batch_sweep\",\n"
       << "  \"manifest\": "
       << manifest("count=" + cli.get("count") + " small-n=" +
                   cli.get("small-n") + " large-n=" + cli.get("large-n") +
                   " threads=" + cli.get("threads") + " reps=" +
                   cli.get("reps"))
       << ",\n"
       << "  \"hardware_threads\": " << hw_threads << ",\n"
       << "  \"count\": " << batch.size() << ",\n"
       << "  \"reps\": " << reps << ",\n  \"runs\": [\n";

  AsciiTable table({"threads", "seconds", "matrices/s", "steals",
                    "idle (s)"});
  table.set_caption(
      "svd_batch over " + std::to_string(count) + " x " +
      std::to_string(small_n) + "x" + std::to_string(small_n) +
      " (alternating slow/fast) + 1 x " + std::to_string(large_n) + "x" +
      std::to_string(large_n) + ":");

  bool all_identical = true;
  std::uint64_t max_steals_multithread = 0;
  bool first_run = true;
  for (int t : threads) {
    std::vector<SvdResult> out;
    SvdBatchStats stats;
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      Timer timer;
      out = svd_batch(batch, {}, static_cast<std::size_t>(t), &stats);
      best = std::min(best, timer.seconds());
    }
    bool ok = out.size() == refs.size();
    for (std::size_t i = 0; ok && i < out.size(); ++i)
      ok = values_bit_identical(out[i], refs[i]);
    all_identical = all_identical && ok;
    if (t >= 2)
      max_steals_multithread = std::max(max_steals_multithread, stats.steals);
    double idle_sum = 0.0;
    for (double s : stats.worker_idle_s) idle_sum += s;
    const double per_s = static_cast<double>(batch.size()) / best;
    json << (first_run ? "" : ",\n") << "    {\"threads\": " << t
         << ", \"seconds\": " << fmt(best)
         << ", \"matrices_per_s\": " << fmt(per_s)
         << ", \"steals\": " << stats.steals << ", \"idle_fraction\": "
         << fmt(stats.wall_s > 0.0
                    ? idle_sum /
                          (stats.wall_s * static_cast<double>(stats.workers))
                    : 0.0)
         << ", \"bit_identical\": " << (ok ? "true" : "false") << "}";
    first_run = false;
    table.add_row({std::to_string(t), fmt(best), format_fixed(per_s, 1),
                   std::to_string(stats.steals), fmt(idle_sum)});
  }
  json << "\n  ],\n  \"max_steals_multithread\": " << max_steals_multithread
       << ",\n  \"all_bit_identical\": " << (all_identical ? "true" : "false")
       << "\n}\n";
  std::cout << table.to_string() << '\n';
  if (max_steals_multithread == 0)
    std::cout << "warning: no steals observed at threads >= 2 — the "
                 "adversarial batch did not engage the scheduler\n";

  const std::string out_path = cli.get("out");
  write_file(out_path, json.str());
  std::cout << "JSON written to " << out_path << '\n';

  if (!all_identical) {
    std::cerr << "BIT-IDENTITY FAILURE: scheduled results diverged from the "
                 "sequential reference\n";
    return 1;
  }
  return 0;
}
