#include "reportgen/runner.hpp"

#include <sstream>
#include <thread>

#include "baselines/golub_kahan.hpp"
#include "baselines/parallel_hestenes.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "linalg/generate.hpp"

namespace hjsvd::report {

Matrix experiment_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  Rng rng(seed ^ (static_cast<std::uint64_t>(m) << 32) ^ n);
  return random_gaussian(m, n, rng);
}

double time_best(const std::function<void()>& fn, double min_seconds,
                 std::size_t max_reps) {
  double best = 1e300;
  double spent = 0.0;
  for (std::size_t rep = 0; rep < max_reps; ++rep) {
    Timer t;
    fn();
    const double s = t.seconds();
    if (s < best) best = s;
    spent += s;
    if (spent >= min_seconds) break;
  }
  return best;
}

double golub_kahan_seconds(const Matrix& a) {
  return time_best([&] { (void)golub_kahan_svd(a); });
}

double parallel_hestenes_seconds(const Matrix& a) {
  HestenesConfig cfg;  // 6 sweeps, values only — the paper's protocol
  return time_best([&] { (void)parallel_hestenes_svd(a, cfg); });
}

std::string host_description() {
  std::ostringstream os;
  os << "host: " << std::thread::hardware_concurrency() << " hardware threads";
#if defined(__VERSION__)
  os << ", gcc/clang " << __VERSION__;
#endif
  return os.str();
}

}  // namespace hjsvd::report
