// Vector/matrix kernels shared by the SVD algorithms.  This header is the
// single dispatch point the engines call: the SIMD-accelerated entries
// forward to linalg/simd/ (runtime-selected AVX2 or portable backend),
// everything else is plain scalar code.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace hjsvd {

/// True when every entry is finite (no NaN/inf) — the input contract of
/// the public solver entry points.
bool all_finite(const Matrix& a);

/// Dot product of two equal-length vectors.  Strict left-to-right
/// accumulation (the bit-exactness reference); overflows to inf when the
/// running sum leaves the double range — use col_norm for guarded column
/// norms, or dot_relaxed for the SIMD-reassociated variant.
double dot(std::span<const double> x, std::span<const double> y);

/// Squared Euclidean norm.  Same accumulation contract as dot.
double squared_norm(std::span<const double> x);

/// Column 2-norm, guarded against overflow/underflow of the squared sum:
/// returns bitwise sqrt(squared_norm(x)) whenever that squared sum is a
/// normal double (the common case, so existing results are unchanged), and
/// falls back to the same scaled accumulation as frobenius_norm when the
/// naive sum would overflow, vanish, or go subnormal.  Identical at every
/// SIMD dispatch level (the guard is strict scalar arithmetic in all
/// configurations).
double col_norm(std::span<const double> x);

/// In-place plane rotation of two equal-length vectors (paper eqs. 11-12):
/// x <- x*c - y*s, y <- x*s + y*c, both from the original x, y.
/// SIMD-dispatched; bitwise identical to the scalar loop at every level.
void rotate_pair(std::span<double> x, std::span<double> y, double c,
                 double s);

/// Batched hardware-form rotation generation (structure-of-arrays): lane l
/// gets exactly the bits of rotation_hardware<fp::NativeOps>(norm_jj[l],
/// norm_ii[l], cov[l]); cov[l] == 0 lanes yield the identity with
/// rotate[l] == 0.  Enforces the rotation non-finite contract (throws
/// hjsvd::Error naming the lowest offending lane, mirroring svd_batch's
/// lowest-index error reporting) before any lane is computed.  All spans
/// must have equal length.
void rotation_hardware_batch(std::span<const double> norm_jj,
                             std::span<const double> norm_ii,
                             std::span<const double> cov,
                             std::span<double> t, std::span<double> c,
                             std::span<double> s,
                             std::span<std::uint8_t> rotate);

/// Relaxed-tier dot product: 4-lane-split accumulation, bitwise identical
/// across SIMD dispatch levels but NOT to the strict dot (error O(n*eps),
/// bounds tested in tests/linalg/test_simd_kernels.cpp).  Engines use it
/// only under the opt-in SvdOptions::simd_relaxed.
double dot_relaxed(std::span<const double> x, std::span<const double> y);

/// Relaxed-tier squared 2-norm (see dot_relaxed).
double squared_norm_relaxed(std::span<const double> x);

/// gram_upper_relaxed into a caller-provided n x n matrix (a Matrix, or
/// the engines' padded SquareView) whose strict lower triangle must already
/// be zero (e.g. a Workspace-acquired buffer); only entries with row <= col
/// are written.  Allocation-free and bitwise equal to gram_upper_relaxed(a).
template <class Mat>
void gram_upper_relaxed_into(Mat& d, const Matrix& a) {
  const std::size_t n = a.cols();
  HJSVD_ENSURE(d.rows() == n && d.cols() == n,
               "gram_upper_relaxed_into output has the wrong shape");
  for (std::size_t i = 0; i < n; ++i) {
    const auto ci = a.col(i);
    for (std::size_t j = i; j < n; ++j) d(i, j) = dot_relaxed(ci, a.col(j));
  }
}

/// Upper-triangular Gram matrix built from dot_relaxed (the relaxed-tier
/// replacement for gram_upper_ops<NativeOps> with chunk_rows == 1).
Matrix gram_upper_relaxed(const Matrix& a);

/// Frobenius norm of a matrix.
double frobenius_norm(const Matrix& a);

/// Upper-triangular Gram matrix D = A^T A (only entries j >= i are written;
/// the strictly-lower triangle is left zero).  This is exactly what the
/// paper's Hestenes preprocessor computes: squared column 2-norms on the
/// diagonal, covariances off it.
Matrix gram_upper(const Matrix& a);

/// Full (symmetric) Gram matrix A^T A.
Matrix gram_full(const Matrix& a);

/// Squared 2-norm of every column.
std::vector<double> squared_col_norms(const Matrix& a);

// Convergence measures of an upper-triangular D, templated over its storage
// (Matrix, or the engines' padded SquareView).

/// Mean absolute value of the strictly-upper off-diagonal entries of a
/// square matrix — the paper's convergence metric ("mean absolute deviations
/// from zero of the covariances", Fig. 10/11).
template <class Mat>
double mean_abs_offdiag(const Mat& d) {
  HJSVD_ENSURE(d.rows() == d.cols(), "convergence metric needs square D");
  const std::size_t n = d.cols();
  if (n < 2) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      sum += std::abs(d(i, j));
  return sum / (static_cast<double>(n) * (n - 1) / 2.0);
}

/// Max |off-diagonal| normalized by the largest diagonal entry; a scale-free
/// convergence measure used for termination thresholds.  Walks the upper
/// triangle column by column, which is contiguous; a max does not depend on
/// the visiting order, and std::max(acc, NaN) keeps acc.
template <class Mat>
double max_relative_offdiag(const Mat& d) {
  HJSVD_ENSURE(d.rows() == d.cols(), "convergence metric needs square D");
  const std::size_t n = d.cols();
  double max_diag = 0.0, max_off = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const auto cj = d.col(j);
    for (std::size_t i = 0; i < j; ++i)
      max_off = std::max(max_off, std::abs(cj[i]));
    max_diag = std::max(max_diag, std::abs(cj[j]));
  }
  if (max_diag == 0.0)
    return max_off == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  return max_off / max_diag;
}

/// Frobenius norm of the off-diagonal part of a symmetric matrix given by
/// its upper triangle: sqrt(2 * sum_{i<j} d(i,j)^2).  The classical Jacobi
/// convergence quantity off(D); reported per sweep by the observability
/// layer (metric svd.sweep.offdiag_frobenius).
template <class Mat>
double offdiag_frobenius(const Mat& d) {
  HJSVD_ENSURE(d.rows() == d.cols(), "convergence metric needs square D");
  const std::size_t n = d.cols();
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = d(i, j);
      sum += v * v;
    }
  return std::sqrt(2.0 * sum);
}

}  // namespace hjsvd
