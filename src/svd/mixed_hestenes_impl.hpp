// Template implementation of the mixed-precision modified Hestenes-Jacobi
// SVD.  Included by mixed_hestenes.cpp, which provides the explicit
// instantiations for the (NativeOps32, NativeOps) and (SoftOps32, SoftOps)
// policy pairs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "linalg/kernels.hpp"
#include "svd/hestenes_impl.hpp"
#include "svd/mixed_hestenes.hpp"
#include "svd/obs_hooks.hpp"

namespace hjsvd {
namespace detail {

/// Upper-triangular D = B^T B of a float matrix under the binary32 policy,
/// into a zeroed n x n view; strict left-to-right accumulation (the float
/// analogue of gram_upper_ops_into with chunk_rows == 1).
template <class OpsF>
void gram_upper_f32_into(SquareView<float> d, const MatrixT<float>& b,
                         OpsF ops) {
  const std::size_t n = b.cols();
  for (std::size_t i = 0; i < n; ++i) {
    const auto ci = b.col(i);
    for (std::size_t j = i; j < n; ++j) {
      const auto cj = b.col(j);
      float acc = 0.0f;
      for (std::size_t r = 0; r < ci.size(); ++r)
        acc = ops.add(acc, ops.mul(ci[r], cj[r]));
      d(i, j) = acc;
    }
  }
}

}  // namespace detail

template <class OpsF, class OpsD>
SvdResult mixed_modified_hestenes_svd_t(const Matrix& a,
                                        const MixedHestenesConfig& cfg,
                                        MixedHestenesStats* stats, OpsF opsf,
                                        OpsD opsd) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  HJSVD_ENSURE(m > 0 && n > 0, "matrix must be non-empty");
  HJSVD_ENSURE(cfg.base.max_sweeps > 0, "need at least one sweep");
  HJSVD_ENSURE(cfg.switch_threshold > 0.0 &&
                   std::isfinite(cfg.switch_threshold),
               "switch_threshold must be positive and finite");
  HJSVD_ENSURE(all_finite(a), "input matrix must be finite (no NaN/inf)");

  auto* trace = obs::active(cfg.base.obs.trace);
  auto* metrics = obs::active(cfg.base.obs.metrics);
  auto* watchdog = obs::active(cfg.base.obs.watchdog);
  auto* deadline = obs::active(cfg.base.obs.deadline);
  auto* numerics = obs::active(cfg.base.obs.numerics);
  const std::uint32_t tid =
      trace != nullptr ? trace->register_thread("hestenes (mixed)") : 0;

  if (stats != nullptr) *stats = MixedHestenesStats{};
  const auto pairs = sweep_pairs(cfg.base.ordering, n);
  // One sampling sequence spanning both precision phases; float-phase
  // entries are widened to double for the probe (a read-only view — the
  // engine's own float arithmetic is untouched).
  std::uint64_t pair_seq = 0;

  // ---------------------------------------------------------------- float
  // phase.  Works on B = A * 2^-e (e = exponent of max |a_ij|), so the
  // largest entry lands in [0.5, 1): the prescale is an exact power of two
  // (no rounding beyond the binary32 narrowing itself) and keeps the float
  // Gram entries far from binary32 overflow for any input A the double
  // engine accepts.  V accumulates in float; D rotates in float.
  double amax = 0.0;
  for (double val : a.data()) amax = std::max(amax, std::abs(val));

  MixedSwitchReason reason = MixedSwitchReason::kSkipped;
  std::size_t float_sweeps = 0;
  double offdiag_at_switch = 0.0;
  MatrixT<float> v32;

  const std::size_t float_budget =
      cfg.max_float_sweeps > 0
          ? std::min(cfg.max_float_sweeps, cfg.base.max_sweeps - 1)
          : cfg.base.max_sweeps - 1;

  if (n >= 2 && amax > 0.0 && float_budget > 0) {
    int e = 0;
    std::frexp(amax, &e);
    const double prescale = std::ldexp(1.0, -e);
    MatrixT<float> b32(m, n);
    {
      const auto src = a.data();
      auto dst = b32.data();
      for (std::size_t idx = 0; idx < src.size(); ++idx)
        dst[idx] = static_cast<float>(src[idx] * prescale);
    }

    obs::Span gram_span;
    if (trace != nullptr)
      gram_span = obs::Span(
          trace, tid, "svd", "gram32",
          obs::ArgsBuilder().add("rows", m).add("cols", n).str());
    // D keeps the same padded layout as in the double engine; the float
    // leading dimension follows the same 64 B rule.
    MatrixT<float> d32_store(padded_ld<float>(n), n);
    auto d32 = square_view(d32_store);
    detail::gram_upper_f32_into(d32, b32, opsf);
    gram_span.end();
    v32 = MatrixT<float>::identity(n);

    double prev_measure = max_relative_offdiag(d32);
    for (std::size_t sweep = 0; sweep < float_budget; ++sweep) {
      obs::Span sweep_span;
      if (trace != nullptr)
        sweep_span = obs::Span(
            trace, tid, "svd", "sweep32",
            obs::ArgsBuilder().add("sweep", sweep).str());
      std::uint64_t rotations = 0, skipped = 0;
      for (const auto& [i, j] : pairs) {
        if (numerics != nullptr && numerics->want(pair_seq))
          numerics->observe_pair(static_cast<double>(d32(i, i)),
                                 static_cast<double>(d32(j, j)),
                                 static_cast<double>(d32(i, j)));
        ++pair_seq;
        if (detail::apply_pair(d32, &v32, cfg.base, i, j, opsf)) {
          ++rotations;
        } else {
          ++skipped;
        }
      }
      ++float_sweeps;
      const double measure = max_relative_offdiag(d32);
      if (stats != nullptr) {
        stats->sweeps.total_rotations += rotations;
        stats->sweeps.total_skipped += skipped;
        if (cfg.base.track_convergence)
          stats->sweeps.sweeps.push_back(
              detail::make_record(d32, rotations, skipped));
      }
      detail::record_sweep_metrics(metrics, watchdog, deadline, numerics, sweep,
                                   d32, rotations, skipped);
      offdiag_at_switch = measure;
      if (measure < cfg.switch_threshold) {
        reason = MixedSwitchReason::kThreshold;
        break;
      }
      // The iteration converges linearly per sweep until it hits the
      // binary32 noise floor; a sweep that barely moves the measure means
      // further float work is wasted — hand over to double now.
      if (measure >= cfg.stall_factor * prev_measure) {
        reason = MixedSwitchReason::kStall;
        break;
      }
      prev_measure = measure;
    }
    if (reason == MixedSwitchReason::kSkipped)
      reason = MixedSwitchReason::kBudget;
  }

  // ----------------------------------------------------------- promotion.
  // V is promoted to double and re-orthonormalized (the float V's columns
  // are orthonormal only to binary32 precision; left uncorrected that
  // error would bound the final accuracy).  D is then *recomputed* in full
  // double precision from the original, unscaled columns:
  // D = (A V)^T (A V), which both erases the float-phase rounding of D and
  // transfers the float phase's progress exactly — D's off-diagonal mass
  // is small because A V's columns are nearly orthogonal, not because a
  // float recurrence says so.
  Matrix v(n, n);
  if (float_sweeps > 0) {
    for (std::size_t c = 0; c < n; ++c) {
      const auto src = v32.col(c);
      auto dst = v.col(c);
      for (std::size_t r = 0; r < n; ++r)
        dst[r] = static_cast<double>(src[r]);
    }
    detail::orthonormalize_columns(v, opsd);
  } else {
    v = Matrix::identity(n);
  }

  obs::Span regram_span;
  if (trace != nullptr)
    regram_span = obs::Span(
        trace, tid, "svd", "gram",
        obs::ArgsBuilder().add("rows", m).add("cols", n).str());
  const Matrix b = float_sweeps > 0 ? matmul(a, v) : a;
  Matrix d_store(padded_ld<double>(n), n);
  auto d = square_view(d_store);
  gram_upper_ops_into(d, b, opsd, cfg.base.gram_chunk_rows);
  regram_span.end();
  const double offdiag_after_recompute = max_relative_offdiag(d);

  // ---------------------------------------------------------- double
  // refinement: ordinary modified-Hestenes sweeps on the recomputed D,
  // continuing to accumulate rotations into the same V.
  SvdResult result;
  std::size_t double_sweeps = 0;
  std::uint64_t total_rotations = 0, total_skipped = 0;
  for (std::size_t sweep = 0; sweep < cfg.base.max_sweeps; ++sweep) {
    obs::Span sweep_span;
    if (trace != nullptr)
      sweep_span = obs::Span(
          trace, tid, "svd", "sweep",
          obs::ArgsBuilder().add("sweep", float_sweeps + sweep).str());
    std::uint64_t rotations = 0, skipped = 0;
    for (const auto& [i, j] : pairs) {
      if (numerics != nullptr && numerics->want(pair_seq))
        numerics->observe_pair(d(i, i), d(j, j), d(i, j));
      ++pair_seq;
      if (detail::apply_pair(d, &v, cfg.base, i, j, opsd)) {
        ++rotations;
      } else {
        ++skipped;
      }
    }
    ++double_sweeps;
    total_rotations += rotations;
    total_skipped += skipped;
    if (stats != nullptr) {
      stats->sweeps.total_rotations += rotations;
      stats->sweeps.total_skipped += skipped;
      if (cfg.base.track_convergence)
        stats->sweeps.sweeps.push_back(
            detail::make_record(d, rotations, skipped));
    }
    detail::record_sweep_metrics(metrics, watchdog, deadline, numerics,
                                 float_sweeps + sweep, d, rotations, skipped);
    if (cfg.base.tolerance > 0.0 &&
        max_relative_offdiag(d) < cfg.base.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.sweeps = float_sweeps + double_sweeps;
  if (cfg.base.tolerance == 0.0) {
    // Fixed-sweep mode: same default check as the all-double engine.
    result.converged = max_relative_offdiag(d) < 1e-10;
  }

  // Finalization reuses the all-double path verbatim: by the invariant
  // D = V^T A^T A V, (d, v) at this point are exactly what an all-double
  // run would hand over, so sqrt/sort/U-formation need no mixed-specific
  // handling.  cfg.base.compute_u/v decide what gets gathered; V was
  // accumulated unconditionally because the promotion-time Gram recompute
  // needs it even for a values-only run.
  obs::Span finalize_span;
  if (trace != nullptr)
    finalize_span = obs::Span(trace, tid, "svd", "finalize");
  const std::vector<double> diag = detail::sqrt_diagonal(d, opsd);
  d_store = Matrix();  // D is dead; free it before finalization allocates
  detail::finalize_gram_result(a, diag, v, cfg.base, result, opsd);
  finalize_span.end();
  if (numerics != nullptr) numerics->observe_finalize(a, result);

  detail::record_run_metrics(metrics, m, n, result.sweeps, total_rotations,
                             total_skipped, result.converged);
  if (metrics != nullptr) {
    metrics->gauge_set("svd.mp.float_sweeps", "sweeps",
                       static_cast<double>(float_sweeps));
    metrics->gauge_set("svd.mp.double_sweeps", "sweeps",
                       static_cast<double>(double_sweeps));
    metrics->gauge_set("svd.mp.switch_sweep", "sweeps",
                       static_cast<double>(float_sweeps));
    metrics->gauge_set("svd.mp.switch_threshold", "1", cfg.switch_threshold);
    metrics->gauge_set("svd.mp.switch_reason", "enum",
                       static_cast<double>(reason));
    metrics->gauge_set("svd.mp.offdiag_at_switch", "1", offdiag_at_switch);
    metrics->gauge_set("svd.mp.offdiag_after_recompute", "1",
                       offdiag_after_recompute);
  }
  if (stats != nullptr) {
    stats->float_sweeps = float_sweeps;
    stats->double_sweeps = double_sweeps;
    stats->switch_reason = reason;
    stats->offdiag_at_switch = offdiag_at_switch;
    stats->offdiag_after_recompute = offdiag_after_recompute;
  }
  return result;
}

}  // namespace hjsvd
