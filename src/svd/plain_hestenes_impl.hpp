// Template implementation of the plain (recomputing) Hestenes-Jacobi SVD.
// Included by plain_hestenes.cpp and fixed_hestenes.cpp for their
// respective explicit instantiations, and by block_hestenes.cpp for the
// shared column finalization.
#pragma once

#include "svd/plain_hestenes.hpp"

#include <algorithm>
#include <numeric>

#include "common/pool.hpp"
#include "linalg/kernels.hpp"
#include "svd/hestenes_impl.hpp"  // rotate_columns, dot_ops, gram_upper_ops

namespace hjsvd {
namespace detail {

/// What one pair of a round leaves for the in-order fold after the round:
/// its pre-rotation norms and covariance (the numerics-probe sample) and
/// whether it rotated.
struct PlainPairSlot {
  double norm_ii = 0.0;
  double norm_jj = 0.0;
  double cov = 0.0;
  bool rotated = false;
};

/// Squared norms of columns x and y and their covariance, in one pass over
/// the columns.  Each sum is strict left-to-right, so the three are bitwise
/// three dot_ops calls; carrying them together keeps the accumulators in
/// registers and overlaps their add latencies.  The relaxed SIMD tier takes
/// its lane-split kernel instead.
template <class Ops>
void pair_dots(std::span<const double> x, std::span<const double> y,
               const HestenesConfig& cfg, Ops ops, PlainPairSlot& out) {
  if constexpr (std::is_same_v<Ops, fp::NativeOps>) {
    if (cfg.simd_relaxed) {
      out.norm_ii = dot_relaxed(x, x);
      out.norm_jj = dot_relaxed(y, y);
      out.cov = dot_relaxed(x, y);
      return;
    }
  }
  double xx = 0.0, yy = 0.0, xy = 0.0;
  for (std::size_t r = 0; r < x.size(); ++r) {
    xx = ops.add(xx, ops.mul(x[r], x[r]));
    yy = ops.add(yy, ops.mul(y[r], y[r]));
    xy = ops.add(xy, ops.mul(x[r], y[r]));
  }
  out.norm_ii = xx;
  out.norm_jj = yy;
  out.cov = xy;
}

/// Shared finalization of the column-rotating paths: singular values are the
/// 2-norms of the converged B = U * Sigma (in `r`), sorted descending; U is
/// the normalized columns of B re-orthogonalized and completed from the
/// null space (orthonormalize_columns, shared with the Gram path), and V is
/// gathered from the accumulated rotation product.
template <class Ops>
void finalize_column_result(const Matrix& r, Matrix& v, bool compute_u,
                            bool compute_v, SvdResult& result, Ops ops) {
  const std::size_t m = r.rows();
  const std::size_t n = r.cols();
  const std::size_t k = std::min(m, n);
  std::vector<double> norms(n);
  for (std::size_t c = 0; c < n; ++c) {
    if constexpr (std::is_same_v<Ops, fp::NativeOps>) {
      // Overflow/underflow-guarded: bitwise sqrt(squared_norm) whenever the
      // squared sum is a normal double, scaled accumulation otherwise.
      norms[c] = col_norm(r.col(c));
    } else {
      const double sq = dot_ops<Ops>(r.col(c), r.col(c), ops);
      norms[c] = sq > 0.0 ? ops.sqrt(sq) : 0.0;
    }
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) { return norms[x] > norms[y]; });
  result.singular_values.resize(k);
  for (std::size_t t = 0; t < k; ++t)
    result.singular_values[t] = norms[order[t]];

  const double sigma_max =
      result.singular_values.empty() ? 0.0 : result.singular_values[0];
  const double cutoff = sigma_max * static_cast<double>(std::max(m, n)) * 1e-15;
  if (compute_u) {
    result.u = Matrix(m, k);
    for (std::size_t t = 0; t < k; ++t) {
      const double sv = norms[order[t]];
      if (sv <= cutoff) continue;
      const auto bt = r.col(order[t]);
      auto ut = result.u.col(t);
      for (std::size_t row = 0; row < m; ++row) ut[row] = bt[row] / sv;
    }
    // Same re-orthogonalization + null-space completion as the Gram path:
    // columns skipped above (numerically zero singular values) would
    // otherwise stay zero vectors, and the normalized columns are only
    // orthogonal to eps * kappa(A).
    orthonormalize_columns(result.u, ops);
  }
  if (compute_v) {
    Matrix v_sorted(n, k);
    for (std::size_t t = 0; t < k; ++t) {
      const auto src = v.col(order[t]);
      auto dst = v_sorted.col(t);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    result.v = std::move(v_sorted);
  }
}

}  // namespace detail

template <class Ops>
SvdResult plain_hestenes_svd_t(const Matrix& a, const HestenesConfig& cfg,
                               HestenesStats* stats, Ops ops,
                               WorkStealingPool* pool) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  HJSVD_ENSURE(m > 0 && n > 0, "matrix must be non-empty");
  HJSVD_ENSURE(cfg.max_sweeps > 0, "need at least one sweep");
  HJSVD_ENSURE(all_finite(a), "input matrix must be finite (no NaN/inf)");
  // The counting and fixed-point policies update shared tallies from every
  // operation, so only the stateless host FPU may run pairs concurrently.
  if constexpr (!std::is_same_v<Ops, fp::NativeOps>)
    HJSVD_ENSURE(pool == nullptr,
                 "only the host-FPU plain engine runs rounds on a pool");

  Matrix r = a;  // columns converge to B = U * Sigma
  const bool need_v = cfg.compute_v;
  Matrix v;
  if (need_v) v = Matrix::identity(n);

  const auto rounds = sweep_rounds(cfg.ordering, n);
  std::vector<detail::PlainPairSlot> slots;
  SvdResult result;
  if (stats != nullptr) *stats = HestenesStats{};
  auto* metrics = obs::active(cfg.obs.metrics);
  auto* watchdog = obs::active(cfg.obs.watchdog);
  auto* deadline = obs::active(cfg.obs.deadline);
  auto* numerics = obs::active(cfg.obs.numerics);

  std::size_t sweeps_done = 0;
  std::uint64_t total_rotations = 0, total_skipped = 0;
  std::uint64_t pair_seq = 0;  // numerics-probe sampling index
  for (std::size_t sweep = 0; sweep < cfg.max_sweeps; ++sweep) {
    std::uint64_t rotations = 0, skipped = 0;
    for (const auto& round : rounds) {
      slots.assign(round.size(), detail::PlainPairSlot{});
      // Recompute norms and covariance from the column data every time —
      // the "duplicated computations" the modified algorithm eliminates.
      // The pairs of a round touch disjoint columns and write only their
      // own slot, so they may run in any order or concurrently.
      const auto orthogonalize = [&](std::size_t p) {
        const auto [i, j] = round[p];
        detail::PlainPairSlot& slot = slots[p];
        detail::pair_dots<Ops>(r.col(i), r.col(j), cfg, ops, slot);
        if (detail::below_threshold(slot.cov, slot.norm_ii, slot.norm_jj,
                                    cfg.rotation_threshold))
          return;
        const RotationParams rp = compute_rotation(
            cfg.formula, slot.norm_jj, slot.norm_ii, slot.cov, ops);
        if (!rp.rotate) return;
        detail::rotate_columns(r, i, j, rp.cos, rp.sin, ops);
        if (need_v) detail::rotate_columns(v, i, j, rp.cos, rp.sin, ops);
        slot.rotated = true;
      };
      if (pool != nullptr) {
        pool->fork_join(round.size(), orthogonalize);
      } else {
        for (std::size_t p = 0; p < round.size(); ++p) orthogonalize(p);
      }
      // Fold in pair order: stats and probe samples do not depend on the
      // executor.
      for (const auto& slot : slots) {
        if (numerics != nullptr && numerics->want(pair_seq))
          numerics->observe_pair(slot.norm_ii, slot.norm_jj, slot.cov);
        ++pair_seq;
        ++(slot.rotated ? rotations : skipped);
      }
    }
    ++sweeps_done;
    total_rotations += rotations;
    total_skipped += skipped;
    Matrix d;  // Gram matrix, built only when a convergence check needs it
    const bool need_gram = (stats != nullptr && cfg.track_convergence) ||
                           metrics != nullptr || watchdog != nullptr ||
                           numerics != nullptr || cfg.tolerance > 0.0;
    if (need_gram) d = detail::gram_upper_maybe_relaxed(r, cfg, ops);
    detail::record_sweep_metrics(metrics, watchdog, deadline, numerics, sweep, d,
                                 rotations, skipped);
    if (stats != nullptr) {
      stats->total_rotations += rotations;
      stats->total_skipped += skipped;
      if (cfg.track_convergence)
        stats->sweeps.push_back(detail::make_record(d, rotations, skipped));
    }
    if (cfg.tolerance > 0.0 && max_relative_offdiag(d) < cfg.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.sweeps = sweeps_done;
  if (cfg.tolerance == 0.0) {
    result.converged =
        max_relative_offdiag(detail::gram_upper_maybe_relaxed(r, cfg, ops)) <
        1e-10;
  }
  detail::record_run_metrics(metrics, m, n, sweeps_done, total_rotations,
                             total_skipped, result.converged);

  detail::finalize_column_result(r, v, cfg.compute_u, cfg.compute_v, result,
                                 ops);
  if (numerics != nullptr) numerics->observe_finalize(a, result);
  return result;
}

}  // namespace hjsvd
