#include "linalg/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/simd/simd.hpp"

namespace hjsvd {
namespace {

/// Overflow-safe scaled 2-norm accumulation (shared by frobenius_norm and
/// the col_norm fallback).  Propagates NaN/inf inputs.
double scaled_norm(std::span<const double> values) {
  double scale = 0.0, sumsq = 1.0;
  for (double v : values) {
    if (v == 0.0) continue;
    const double av = std::abs(v);
    if (scale < av) {
      sumsq = 1.0 + sumsq * (scale / av) * (scale / av);
      scale = av;
    } else {
      sumsq += (av / scale) * (av / scale);
    }
  }
  return scale * std::sqrt(sumsq);
}

}  // namespace

bool all_finite(const Matrix& a) {
  for (double v : a.data())
    if (!std::isfinite(v)) return false;
  return true;
}

double dot(std::span<const double> x, std::span<const double> y) {
  HJSVD_ENSURE(x.size() == y.size(), "dot requires equal lengths");
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

double squared_norm(std::span<const double> x) {
  double acc = 0.0;
  for (double v : x) acc += v * v;
  return acc;
}

double frobenius_norm(const Matrix& a) {
  // Scaled accumulation to avoid overflow on extreme inputs.
  return scaled_norm(a.data());
}

double col_norm(std::span<const double> x) {
  const double sq = squared_norm(x);
  // Fast path: the naive squared sum is a normal double, so sqrt of it is
  // the historical (and bitwise-preserved) answer.  Everything else —
  // overflow to inf, total underflow to zero, a subnormal sum with its
  // precision loss, or NaN — goes through the scaled accumulation.
  if (sq >= std::numeric_limits<double>::min() &&
      sq <= std::numeric_limits<double>::max())
    return std::sqrt(sq);
  return scaled_norm(x);
}

void rotate_pair(std::span<double> x, std::span<double> y, double c,
                 double s) {
  simd::rotate_pair(x, y, c, s);
}

void rotation_hardware_batch(std::span<const double> norm_jj,
                             std::span<const double> norm_ii,
                             std::span<const double> cov,
                             std::span<double> t, std::span<double> c,
                             std::span<double> s,
                             std::span<std::uint8_t> rotate) {
  const std::size_t n = norm_jj.size();
  HJSVD_ENSURE(norm_ii.size() == n && cov.size() == n && t.size() == n &&
                   c.size() == n && s.size() == n && rotate.size() == n,
               "rotation_hardware_batch requires equal-length spans");
  // Non-finite contract, checked lowest-lane-first so the reported lane is
  // deterministic regardless of how the backend orders its lanes.
  for (std::size_t l = 0; l < n; ++l)
    HJSVD_ENSURE(std::isfinite(norm_jj[l]) && std::isfinite(norm_ii[l]) &&
                     std::isfinite(cov[l]),
                 "rotation_hardware_batch: non-finite input at lane " +
                     std::to_string(l));
  simd::rotation_hardware_batch(n, norm_jj.data(), norm_ii.data(),
                                cov.data(), t.data(), c.data(), s.data(),
                                rotate.data());
}

double dot_relaxed(std::span<const double> x, std::span<const double> y) {
  return simd::dot_relaxed(x, y);
}

double squared_norm_relaxed(std::span<const double> x) {
  return simd::squared_norm_relaxed(x);
}

Matrix gram_upper_relaxed(const Matrix& a) {
  const std::size_t n = a.cols();
  Matrix d(n, n);
  gram_upper_relaxed_into(d, a);
  return d;
}

Matrix gram_upper(const Matrix& a) {
  const std::size_t n = a.cols();
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto ci = a.col(i);
    for (std::size_t j = i; j < n; ++j) d(i, j) = dot(ci, a.col(j));
  }
  return d;
}

Matrix gram_full(const Matrix& a) {
  Matrix d = gram_upper(a);
  const std::size_t n = a.cols();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) d(i, j) = d(j, i);
  return d;
}

std::vector<double> squared_col_norms(const Matrix& a) {
  std::vector<double> norms(a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j)
    norms[j] = squared_norm(a.col(j));
  return norms;
}

}  // namespace hjsvd
