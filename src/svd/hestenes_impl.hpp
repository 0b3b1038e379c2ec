// Template implementation of the modified Hestenes-Jacobi SVD (Algorithm 1).
// Included by hestenes.cpp, which provides the explicit instantiations.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <type_traits>

#include "linalg/kernels.hpp"
#include "svd/hestenes.hpp"
#include "svd/sweep_driver.hpp"
#include "svd/workspace.hpp"

namespace hjsvd {
namespace detail {

/// Scratch-buffer selector: a Workspace-acquired matrix when an arena is
/// attached, else `local` re-shaped in place.  Both paths hand back a
/// zeroed rows x cols matrix, so the caller's arithmetic cannot tell them
/// apart.
inline Matrix& scratch_matrix(Workspace* ws, Workspace::Slot slot,
                              std::size_t rows, std::size_t cols,
                              Matrix& local) {
  if (ws != nullptr) return ws->acquire(slot, rows, cols);
  local.reshape(rows, cols);
  return local;
}

/// Applies the plane rotation to the covariance entries affected by
/// orthogonalizing columns (i, j) — Algorithm 1 lines 18-26.  D stores the
/// upper triangle (row <= col); the canonical location of the covariance
/// between columns p < q is D(p, q).  Both outputs of each pair are computed
/// from the *original* values, as the hardware update kernel does (Fig. 5;
/// the paper's pseudocode reads as if line 20 consumed line 19's output,
/// which would be wrong).  Mat is the engines' padded SquareView (any matrix
/// with the same interface works).
template <class Mat, class Ops>
void rotate_covariances(Mat& d, std::size_t i, std::size_t j, double c,
                        double s, Ops ops) {
  const std::size_t n = d.cols();
  auto col_i = d.col(i);
  auto col_j = d.col(j);
  // k < i: covariances live at D(k, i) and D(k, j) — both contiguous, so
  // the native-arithmetic policy takes the SIMD-dispatched kernel (bitwise
  // identical to the loop below; see linalg/simd/simd.hpp).  The strided
  // middle/tail segments stay scalar.
  if constexpr (std::is_same_v<Ops, fp::NativeOps>) {
    rotate_pair(col_i.first(i), col_j.first(i), c, s);
  } else {
    for (std::size_t k = 0; k < i; ++k) {
      const double x = col_i[k];
      const double y = col_j[k];
      col_i[k] = ops.sub(ops.mul(x, c), ops.mul(y, s));
      col_j[k] = ops.add(ops.mul(x, s), ops.mul(y, c));
    }
  }
  // i < k < j: covariances live at D(i, k) and D(k, j).
  for (std::size_t k = i + 1; k < j; ++k) {
    const double x = d(i, k);
    const double y = col_j[k];
    d(i, k) = ops.sub(ops.mul(x, c), ops.mul(y, s));
    col_j[k] = ops.add(ops.mul(x, s), ops.mul(y, c));
  }
  // k > j: covariances live at D(i, k) and D(j, k).
  for (std::size_t k = j + 1; k < n; ++k) {
    const double x = d(i, k);
    const double y = d(j, k);
    d(i, k) = ops.sub(ops.mul(x, c), ops.mul(y, s));
    d(j, k) = ops.add(ops.mul(x, s), ops.mul(y, c));
  }
}

/// Rotates columns i and j of a matrix per eqs. (11)-(12).
template <class Ops>
void rotate_columns(Matrix& v, std::size_t i, std::size_t j, double c,
                    double s, Ops ops) {
  auto vi = v.col(i);
  auto vj = v.col(j);
  if constexpr (std::is_same_v<Ops, fp::NativeOps>) {
    // SIMD-dispatched, bitwise identical to the scalar loop below.
    rotate_pair(vi, vj, c, s);
  } else {
    for (std::size_t r = 0; r < vi.size(); ++r) {
      const double x = vi[r];
      const double y = vj[r];
      vi[r] = ops.sub(ops.mul(x, c), ops.mul(y, s));
      vj[r] = ops.add(ops.mul(x, s), ops.mul(y, c));
    }
  }
}

/// True when the covariance is small enough to skip under the config's
/// relative threshold (threshold-Jacobi; 0 skips only exact zeros).
///
/// The predicate is |d_pq| <= tol * sqrt(d_pp * d_qq) — relative to the
/// diagonal, so it is scale-invariant: svd(2^k A) must skip exactly the
/// pairs svd(A) skips.  The square-free fast path (cov^2 vs tol^2*dii*djj)
/// is only taken when both squared products are normal doubles, which keeps
/// every pre-existing in-range result bitwise identical; outside that range
/// the squares overflow to inf (inf <= inf was *true*, silently skipping
/// every pair of a 2^300-scaled matrix) or flush to zero (0 <= 0, same
/// failure at tiny scales), so the guarded sqrt form is used instead.
inline bool below_threshold(double cov, double dii, double djj,
                            double threshold) {
  if (cov == 0.0) return true;
  if (threshold <= 0.0) return false;
  const double lhs = cov * cov;
  const double rhs = threshold * threshold * dii * djj;
  constexpr double kLo = std::numeric_limits<double>::min();
  constexpr double kHi = std::numeric_limits<double>::max();
  if (lhs >= kLo && lhs <= kHi && rhs >= kLo && rhs <= kHi)
    return lhs <= rhs;
  // Scale-safe slow path: sqrt halves the exponents, so no intermediate can
  // overflow or underflow for finite inputs.  A tiny-negative diagonal
  // (rounding) makes the sqrt NaN and the comparison false: rotate, which
  // is always the conservative choice.
  return std::abs(cov) <= threshold * std::sqrt(dii) * std::sqrt(djj);
}

/// One rotation step on D (and V, when accumulated): Algorithm 1 lines 8-26.
/// Returns false when the pair was skipped (orthogonal or sub-threshold).
/// D is the engines' padded SquareView (or any matrix with the same
/// interface).
template <class DMat, class Ops>
bool apply_pair(DMat& d, Matrix* v, const HestenesConfig& cfg, std::size_t i,
                std::size_t j, Ops ops) {
  const double cov = d(i, j);
  if (below_threshold(cov, d(i, i), d(j, j), cfg.rotation_threshold))
    return false;
  const RotationParams p =
      compute_rotation(cfg.formula, d(j, j), d(i, i), cov, ops);
  if (!p.rotate) return false;
  const double tc = ops.mul(p.t, cov);
  d(j, j) = ops.add(d(j, j), tc);  // line 15
  d(i, i) = ops.sub(d(i, i), tc);  // line 16
  d(i, j) = 0.0;                   // line 17
  rotate_covariances(d, i, j, p.cos, p.sin, ops);
  if (v != nullptr) rotate_columns(*v, i, j, p.cos, p.sin, ops);
  return true;
}

/// Dot product with strict left-to-right accumulation under the policy.
template <class Ops>
double dot_ops(std::span<const double> x, std::span<const double> y, Ops ops) {
  double acc = 0.0;
  for (std::size_t r = 0; r < x.size(); ++r)
    acc = ops.add(acc, ops.mul(x[r], y[r]));
  return acc;
}

/// gram_upper_ops (chunk_rows == 1), except native-arithmetic runs under the
/// opt-in relaxed SIMD tier take the lane-split kernel.
template <class Ops>
Matrix gram_upper_maybe_relaxed(const Matrix& a, const HestenesConfig& cfg,
                                Ops ops) {
  if constexpr (std::is_same_v<Ops, fp::NativeOps>) {
    if (cfg.simd_relaxed) return gram_upper_relaxed(a);
  }
  return gram_upper_ops(a, ops);
}

/// Modified Gram-Schmidt orthonormalization of U's columns, in place.
///
/// U = A * V * Sigma^-1 loses column orthogonality as eps * kappa(A) on the
/// Gram path (cond(A^T A) = cond(A)^2; docs/ALGORITHM.md §6), and columns
/// whose singular value is numerically zero arrive as zero vectors.  Two
/// projection passes per column ("twice is enough", Giraud et al.) restore
/// orthogonality to machine precision; a column annihilated by the
/// projections — or zero on arrival — is completed from the null space with
/// the standard-basis vector least represented in the span of the previous
/// columns, so U always has exactly orthonormal columns.
template <class Ops>
void orthonormalize_columns(Matrix& u, Ops ops) {
  const std::size_t m = u.rows();
  const std::size_t k = u.cols();
  HJSVD_ASSERT(k <= m, "cannot orthonormalize more columns than rows");
  for (std::size_t t = 0; t < k; ++t) {
    auto ut = u.col(t);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t s = 0; s < t; ++s) {
        const auto us = u.col(s);
        const double coef = dot_ops<Ops>(us, ut, ops);
        for (std::size_t r = 0; r < m; ++r)
          ut[r] = ops.sub(ut[r], ops.mul(coef, us[r]));
      }
    }
    double norm = ops.sqrt(dot_ops<Ops>(ut, ut, ops));
    // Valid columns arrive with norm near 1 (u_t = A v_t / sigma_t and
    // ||A v_t|| ~ sigma_t); a norm this small means the column carried no
    // independent direction (zero singular value, or pure rounding noise
    // aligned with earlier columns) and must be replaced, not rescaled.
    if (norm <= 0.25) {
      // Seed with the basis vector least represented in the current span:
      // residual^2 of e_r against orthonormal u_0..u_{t-1} is
      // 1 - sum_s u_s[r]^2, so minimize the row's energy.
      std::size_t best_row = 0;
      double best_energy = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < m; ++r) {
        double energy = 0.0;
        for (std::size_t s = 0; s < t; ++s) {
          const double e = u.col(s)[r];
          energy = ops.add(energy, ops.mul(e, e));
        }
        if (energy < best_energy) {
          best_energy = energy;
          best_row = r;
        }
      }
      std::fill(ut.begin(), ut.end(), 0.0);
      ut[best_row] = 1.0;
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t s = 0; s < t; ++s) {
          const auto us = u.col(s);
          const double coef = dot_ops<Ops>(us, ut, ops);
          for (std::size_t r = 0; r < m; ++r)
            ut[r] = ops.sub(ut[r], ops.mul(coef, us[r]));
        }
      }
      norm = ops.sqrt(dot_ops<Ops>(ut, ut, ops));
      HJSVD_ASSERT(norm > 0.0, "null-space completion produced a zero vector");
    }
    const double inv = ops.div(1.0, norm);
    for (std::size_t r = 0; r < m; ++r) ut[r] = ops.mul(ut[r], inv);
  }
}

/// Singular values in column order: the sqrt of the converged D's diagonal
/// (Algorithm 1 lines 28-29).  Tiny negative diagonals can appear from
/// rounding; clamp.  This is all finalization reads of D, so an engine that
/// owns D frees it before finalize_gram_result allocates U's and V's
/// buffers, and the padded D does not add to a call's peak memory.
template <class DMat, class Ops>
std::vector<double> sqrt_diagonal(const DMat& d, Ops ops) {
  std::vector<double> diag(d.cols());
  for (std::size_t c = 0; c < diag.size(); ++c)
    diag[c] = d(c, c) > 0.0 ? ops.sqrt(d(c, c)) : 0.0;
  return diag;
}

/// Shared finalization of the Gram-rotating paths: sort the singular values
/// `diag` (from sqrt_diagonal) descending, gather the requested singular
/// vectors, and form U = A * V * Sigma^-1 (eq. (7)) with the
/// re-orthonormalization pass.  `v` is the accumulated rotation product
/// (identity-seeded) and may be empty when neither U nor V was requested.
template <class Ops>
void finalize_gram_result(const Matrix& a, const std::vector<double>& diag,
                          Matrix& v, const HestenesConfig& cfg,
                          SvdResult& result, Ops ops,
                          Workspace* ws = nullptr) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t k = std::min(m, n);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return diag[x] > diag[y];
  });
  result.singular_values.resize(k);
  for (std::size_t t = 0; t < k; ++t)
    result.singular_values[t] = diag[order[t]];

  if (cfg.compute_u || cfg.compute_v) {
    // V_sorted escapes into the result when V was requested, so it must own
    // fresh storage then; with U only, it is pure scratch and comes from
    // the arena.
    Matrix v_sorted_local;
    Matrix& v_sorted =
        cfg.compute_v
            ? (v_sorted_local.reshape(n, k), v_sorted_local)
            : scratch_matrix(ws, Workspace::Slot::kVSorted, n, k,
                             v_sorted_local);
    for (std::size_t t = 0; t < k; ++t) {
      const auto src = v.col(order[t]);
      auto dst = v_sorted.col(t);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    if (cfg.compute_u) {
      // U = A * V * Sigma^-1 (eq. (7)), then modified Gram-Schmidt: the
      // division restores unit scale only to eps * kappa(A), and columns
      // whose singular value is numerically zero need a null-space
      // completion (see orthonormalize_columns).
      Matrix b_local;
      Matrix& b =
          scratch_matrix(ws, Workspace::Slot::kFinalizeB, m, k, b_local);
      matmul_into(b, a, v_sorted);
      const double sigma_max =
          result.singular_values.empty() ? 0.0 : result.singular_values[0];
      const double cutoff =
          sigma_max * static_cast<double>(std::max(m, n)) * 1e-15;
      result.u = Matrix(m, k);
      for (std::size_t t = 0; t < k; ++t) {
        const double sv = result.singular_values[t];
        if (sv <= cutoff) continue;
        const auto bt = b.col(t);
        auto ut = result.u.col(t);
        for (std::size_t r = 0; r < m; ++r) ut[r] = bt[r] / sv;
      }
      orthonormalize_columns(result.u, ops);
    }
    if (cfg.compute_v) {
      result.v = std::move(v_sorted_local);
    }
  }
}

}  // namespace detail

// Kept out of line: inlined into modified_hestenes_svd_t, the same loop
// took 2.5x as long with GCC 12 at n = 256 (Gram phase 17 ms against
// 6.7 ms out of line).
template <class Mat, class Ops>
[[gnu::noinline]] void gram_upper_ops_into(Mat& d, const Matrix& a, Ops ops,
                                           std::size_t chunk_rows) {
  HJSVD_ENSURE(chunk_rows >= 1, "chunk_rows must be at least 1");
  const std::size_t n = a.cols();
  const std::size_t m = a.rows();
  HJSVD_ENSURE(d.rows() == n && d.cols() == n,
               "gram_upper_ops_into output has the wrong shape");
  for (std::size_t i = 0; i < n; ++i) {
    const auto ci = a.col(i);
    for (std::size_t j = i; j < n; ++j) {
      const auto cj = a.col(j);
      // chunk_rows == 1 is strict left-to-right (DESIGN.md §6): dot_ops is
      // the same sum without the chunk bookkeeping, and compiles to a loop
      // twice as fast (GCC 12, n = 256: 5.7 ms against 11.5 ms).
      if (chunk_rows == 1) {
        d(i, j) = detail::dot_ops(ci, cj, ops);
        continue;
      }
      // Partial sums over chunk_rows rows (the layered multiplier-array's
      // association), accumulated chunk by chunk.
      double acc = 0.0;
      for (std::size_t base = 0; base < m; base += chunk_rows) {
        const std::size_t end = std::min(m, base + chunk_rows);
        double chunk = ops.mul(ci[base], cj[base]);
        for (std::size_t r = base + 1; r < end; ++r)
          chunk = ops.add(chunk, ops.mul(ci[r], cj[r]));
        acc = ops.add(acc, chunk);
      }
      d(i, j) = acc;
    }
  }
}

template <class Ops>
Matrix gram_upper_ops(const Matrix& a, Ops ops, std::size_t chunk_rows) {
  Matrix d(a.cols(), a.cols());
  gram_upper_ops_into(d, a, ops, chunk_rows);
  return d;
}

template <class Ops>
SvdResult modified_hestenes_svd_t(const Matrix& a, const HestenesConfig& cfg,
                                  HestenesStats* stats, Ops ops) {
  detail::check_sweep_input(a, cfg);
  const std::size_t n = a.cols();
  const detail::RunObs run(cfg.obs, "hestenes (sequential)");

  obs::Span gram_span;
  if (run.trace != nullptr)
    gram_span = run.span(
        "gram", obs::ArgsBuilder().add("rows", a.rows()).add("cols", n).str());
  // The two big working buffers come from the attached Workspace when one
  // is present, so a warm serve worker runs this whole function without
  // touching the heap.  Acquired buffers arrive zeroed, which is exactly
  // what the into-variants below require (they write the upper triangle /
  // diagonal only).  D lives in its slot as a padded_ld(n) x n block and is
  // read and written only through the n x n view over it.
  Workspace* ws = cfg.workspace;
  Matrix d_local;
  auto d = square_view(detail::scratch_matrix(
      ws, Workspace::Slot::kGram, padded_ld(n), n, d_local));
  if constexpr (std::is_same_v<Ops, fp::NativeOps>) {
    if (cfg.simd_relaxed && cfg.gram_chunk_rows == 1) {
      gram_upper_relaxed_into(d, a);
    } else {
      gram_upper_ops_into(d, a, ops, cfg.gram_chunk_rows);
    }
  } else {
    gram_upper_ops_into(d, a, ops, cfg.gram_chunk_rows);
  }
  gram_span.end();
  const bool need_v = cfg.compute_u || cfg.compute_v;
  Matrix v_local;
  Matrix& v = need_v ? detail::scratch_matrix(ws, Workspace::Slot::kVAccum, n,
                                              n, v_local)
                     : v_local;
  if (need_v)
    for (std::size_t i = 0; i < n; ++i) v(i, i) = 1.0;

  // The pairs of a round share D (rotate_covariances updates whole rows and
  // columns of it), so the rounds run inline, in pair order.  The slot takes
  // the pair's entries just before they are rotated.
  const auto step = [&](std::size_t i, std::size_t j, detail::PairSlot& slot) {
    slot.norm_ii = d(i, i);
    slot.norm_jj = d(j, j);
    slot.cov = d(i, j);
    slot.rotated = detail::apply_pair(d, need_v ? &v : nullptr, cfg, i, j, ops);
  };
  const auto measure = [&](bool) { return d; };
  const auto finalize = [&](SvdResult& result) {
    const std::vector<double> diag = detail::sqrt_diagonal(d, ops);
    d_local = Matrix();  // D is dead; a Workspace-held D stays in its slot
    detail::finalize_gram_result(a, diag, v, cfg, result, ops, ws);
  };
  return detail::run_sweeps(a, cfg, stats, run, nullptr, step, measure,
                            finalize);
}

}  // namespace hjsvd
