#include "api/svd.hpp"

#include <cstdint>

#include "api/dispatch.hpp"
#include "api/engine.hpp"
#include "baselines/golub_kahan.hpp"
#include "baselines/twosided_jacobi.hpp"
#include "common/error.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svd/hestenes.hpp"
#include "svd/plain_hestenes.hpp"

namespace hjsvd {
namespace {

/// Run-level observability wrapper of the non-Hestenes baselines, which have
/// no internal instrumentation: one span covering the whole decomposition
/// plus shape/outcome gauges.
template <class Fn>
SvdResult run_baseline(const Matrix& a, const SvdOptions& options,
                       const char* name, Fn&& fn) {
  auto* trace = obs::active(options.trace);
  auto* metrics = obs::active(options.metrics);
  obs::Span run_span;
  if (trace != nullptr) {
    const std::uint32_t tid = trace->register_thread(name);
    run_span = obs::Span(trace, tid, "svd", "run",
                         obs::ArgsBuilder()
                             .add("rows", a.rows())
                             .add("cols", a.cols())
                             .add("method", name)
                             .str());
  }
  SvdResult result = fn();
  run_span.end();
  if (auto* watchdog = obs::active(options.watchdog)) watchdog->check_deadline();
  if (auto* deadline = obs::active(options.deadline_poller);
      deadline != nullptr && deadline != options.watchdog)
    deadline->check_deadline();
  if (metrics != nullptr) {
    metrics->gauge_set("svd.rows", "1", static_cast<double>(a.rows()));
    metrics->gauge_set("svd.cols", "1", static_cast<double>(a.cols()));
    metrics->gauge_set("svd.sweeps", "sweeps",
                       static_cast<double>(result.sweeps));
    metrics->gauge_set("svd.converged", "bool", result.converged ? 1.0 : 0.0);
  }
  return result;
}

}  // namespace

SvdResult svd(const Matrix& a, const SvdOptions& options) {
  if (options.threads > 1 && detail::runs_on_pool(options.method, a)) {
    // The plain engine runs large rounds on a pool when asked to; like
    // svd_batch(), a one-shot call borrows the pool of an ephemeral engine.
    EngineInstance engine(EngineConfig{.threads = options.threads});
    return engine.decompose(a, options);
  }
  return detail::svd_on_pool(a, options, nullptr);
}

namespace detail {

bool runs_on_pool(SvdMethod method, const Matrix& a) {
  return method == SvdMethod::kPlainHestenes &&
         a.rows() * (a.cols() / 2) >= kMinPooledRoundWork;
}

SvdResult svd_on_pool(const Matrix& a, const SvdOptions& options,
                      WorkStealingPool* pool) {
  HestenesConfig hj;
  hj.max_sweeps = options.max_sweeps;
  hj.tolerance = options.tolerance;
  hj.compute_u = options.compute_u;
  hj.compute_v = options.compute_v;
  hj.simd_relaxed = options.simd_relaxed;
  hj.obs.trace = options.trace;
  hj.obs.metrics = options.metrics;
  hj.obs.watchdog = options.watchdog;
  hj.obs.deadline = options.deadline_poller;
  hj.obs.numerics = options.numerics;
  hj.workspace = options.workspace;
  switch (options.method) {
    case SvdMethod::kModifiedHestenes:
      return modified_hestenes_svd(a, hj);
    case SvdMethod::kPlainHestenes:
      return plain_hestenes_svd(a, hj, nullptr, pool);
    case SvdMethod::kTwoSidedJacobi: {
      TwoSidedConfig cfg;
      cfg.max_sweeps = options.max_sweeps;
      cfg.tolerance = options.tolerance;
      cfg.compute_u = options.compute_u;
      cfg.compute_v = options.compute_v;
      return run_baseline(a, options, "two-sided Jacobi",
                          [&] { return twosided_jacobi_svd(a, cfg); });
    }
    case SvdMethod::kGolubKahan: {
      GolubKahanConfig cfg;
      cfg.compute_u = options.compute_u;
      cfg.compute_v = options.compute_v;
      return run_baseline(a, options, "Golub-Kahan-Reinsch",
                          [&] { return golub_kahan_svd(a, cfg); });
    }
  }
  throw Error("unknown SVD method");
}

}  // namespace detail

std::vector<SvdResult> svd_batch(const std::vector<Matrix>& batch,
                                 const SvdOptions& options,
                                 std::size_t threads,
                                 SvdBatchStats* stats) {
  // One batch scheduler in the library: an ephemeral warm engine.  The
  // resident pool and per-worker workspaces it owns live exactly as long
  // as this one wave; long-lived callers hold an EngineInstance instead.
  EngineInstance engine(EngineConfig{.threads = threads});
  return engine.decompose_batch(batch, options, stats);
}

const char* svd_method_name(SvdMethod method) {
  switch (method) {
    case SvdMethod::kModifiedHestenes: return "modified Hestenes-Jacobi";
    case SvdMethod::kPlainHestenes: return "plain Hestenes-Jacobi";
    case SvdMethod::kTwoSidedJacobi: return "two-sided Jacobi";
    case SvdMethod::kGolubKahan: return "Golub-Kahan-Reinsch";
  }
  return "?";
}

const char* svd_method_token(SvdMethod method) {
  switch (method) {
    case SvdMethod::kModifiedHestenes: return "hestenes";
    case SvdMethod::kPlainHestenes: return "plain";
    case SvdMethod::kTwoSidedJacobi: return "two-sided";
    case SvdMethod::kGolubKahan: return "golub-kahan";
  }
  return "?";
}

bool svd_method_from_token(const std::string& token, SvdMethod* method) {
  if (token == "hestenes" || token == "modified" ||
      token == "parallel-modified" || token == "block") {
    *method = SvdMethod::kModifiedHestenes;
  } else if (token == "plain" || token == "parallel") {
    *method = SvdMethod::kPlainHestenes;
  } else if (token == "two-sided" || token == "twosided") {
    *method = SvdMethod::kTwoSidedJacobi;
  } else if (token == "golub-kahan" || token == "gk") {
    *method = SvdMethod::kGolubKahan;
  } else {
    return false;
  }
  return true;
}

}  // namespace hjsvd
