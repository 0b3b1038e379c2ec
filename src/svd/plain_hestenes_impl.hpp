// Template implementation of the plain (recomputing) Hestenes-Jacobi SVD:
// its per-pair step and column finalization, run by the shared sweep driver
// (svd/sweep_driver.hpp).  Included by plain_hestenes.cpp and
// fixed_hestenes.cpp for their respective explicit instantiations.
#pragma once

#include "svd/plain_hestenes.hpp"

#include <algorithm>
#include <numeric>

#include "linalg/kernels.hpp"
#include "svd/hestenes_impl.hpp"  // rotate_columns, dot_ops, sweep driver

namespace hjsvd {
namespace detail {

/// Squared norms of columns x and y and their covariance, in one pass over
/// the columns.  Each sum is strict left-to-right, so the three are bitwise
/// three dot_ops calls; carrying them together keeps the accumulators in
/// registers and overlaps their add latencies.  The relaxed SIMD tier takes
/// its lane-split kernel instead.
template <class Ops>
void pair_dots(std::span<const double> x, std::span<const double> y,
               const HestenesConfig& cfg, Ops ops, PairSlot& out) {
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
  detail::check_sweep_input(a, cfg);
  // The counting and fixed-point policies update shared tallies from every
  // operation, so only the stateless host FPU may run pairs concurrently.
  if constexpr (!std::is_same_v<Ops, fp::NativeOps>)
    HJSVD_ENSURE(pool == nullptr,
                 "only the host-FPU plain engine runs rounds on a pool");
  const detail::RunObs run(cfg.obs, "plain hestenes");

  Matrix r = a;  // columns converge to B = U * Sigma
  Matrix v = cfg.compute_v ? Matrix::identity(a.cols()) : Matrix();

  // Recompute norms and covariance from the column data every time — the
  // "duplicated computations" the modified algorithm eliminates.  The pairs
  // of a round touch disjoint columns and write only their own slot, so
  // they may run in any order or concurrently.
  const auto step = [&](std::size_t i, std::size_t j, detail::PairSlot& slot) {
    detail::pair_dots<Ops>(r.col(i), r.col(j), cfg, ops, slot);
    if (detail::below_threshold(slot.cov, slot.norm_ii, slot.norm_jj,
                                cfg.rotation_threshold))
      return;
    const RotationParams rp = compute_rotation(cfg.formula, slot.norm_jj,
                                               slot.norm_ii, slot.cov, ops);
    if (!rp.rotate) return;
    detail::rotate_columns(r, i, j, rp.cos, rp.sin, ops);
    if (cfg.compute_v) detail::rotate_columns(v, i, j, rp.cos, rp.sin, ops);
    slot.rotated = true;
  };
  // The Gram matrix of the columns, built only when a reader wants it.
  const auto measure = [&](bool wanted) {
    return wanted ? detail::gram_upper_maybe_relaxed(r, cfg, ops) : Matrix();
  };
  const auto finalize = [&](SvdResult& result) {
    detail::finalize_column_result(r, v, cfg.compute_u, cfg.compute_v, result,
                                   ops);
  };
  return detail::run_sweeps(a, cfg, stats, run, pool, step, measure,
                            finalize);
}

}  // namespace hjsvd
