// Dense column-major matrix.
//
// The Hestenes-Jacobi algorithm orthogonalizes *columns*, so storage is
// column-major: column j is contiguous, matching both the algorithm's access
// pattern and the accelerator's column-streaming I/O.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace hjsvd {

/// Dense column-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Builds from nested initializer lists in row-major (natural) notation:
  /// Matrix::from_rows({{1,2},{3,4}}).
  static Matrix from_rows(
      std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    HJSVD_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[c * rows_ + r];
  }
  double operator()(std::size_t r, std::size_t c) const {
    HJSVD_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[c * rows_ + r];
  }

  /// Contiguous view of column j.
  std::span<double> col(std::size_t j) {
    HJSVD_ASSERT(j < cols_, "column index out of range");
    return {data_.data() + j * rows_, rows_};
  }
  std::span<const double> col(std::size_t j) const {
    HJSVD_ASSERT(j < cols_, "column index out of range");
    return {data_.data() + j * rows_, rows_};
  }

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  /// Re-shapes in place to rows x cols with every entry zeroed, retaining
  /// the existing heap block whenever its capacity suffices (std::vector
  /// assign never shrinks capacity).  Returns true when the storage was
  /// reused without allocating, false when the buffer had to grow — the
  /// signal svd/workspace.hpp turns into its reuse/alloc counters.  A
  /// zeroed reused buffer is indistinguishable from a fresh Matrix, so
  /// downstream arithmetic is bitwise independent of which path was taken.
  bool reshape(std::size_t rows, std::size_t cols) {
    const std::size_t need = rows * cols;
    const bool reused = data_.capacity() >= need;
    data_.assign(need, 0.0);
    rows_ = rows;
    cols_ = cols;
    return reused;
  }

  Matrix transposed() const;

  /// Max |a_ij - b_ij| over all entries; matrices must be the same shape.
  static double max_abs_diff(const Matrix& a, const Matrix& b);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// C = A * B.
Matrix matmul(const Matrix& a, const Matrix& b);

/// C = A * B into a caller-provided C, which must already be shaped
/// a.rows() x b.cols(); prior contents are overwritten.  The allocation-free
/// variant matmul delegates to — identical loop order and accumulation, so
/// the result is bitwise equal to matmul(a, b) whatever C held before.
void matmul_into(Matrix& c, const Matrix& a, const Matrix& b);

/// Leading dimension of an n x n work matrix of doubles: the smallest
/// ld >= n whose column stride in bytes is an odd multiple of 64 B (one
/// cache line).  A row walk d(i, k), k = 0, 1, ... then visits every L1 set
/// instead of the few a power-of-two stride maps onto (256 -> 264,
/// 248 -> 248, 64 -> 72; docs/ALGORITHM.md §4).
constexpr std::size_t padded_ld(std::size_t n) {
  constexpr std::size_t kLine = 64 / sizeof(double);
  std::size_t lines = (n + kLine - 1) / kLine;
  if (lines % 2 == 0) ++lines;
  return lines * kLine;
}

/// Non-owning n x n column-major view with leading dimension ld >= n: entry
/// (r, c) lives at data[c * ld + r].  Interface-compatible with Matrix for
/// the templated readers of the covariance matrix D (rows/cols, operator(),
/// contiguous col(j) of length n).  Like std::span, constness of the view
/// does not propagate to the elements.
class SquareView {
 public:
  SquareView(double* data, std::size_t n, std::size_t ld)
      : data_(data), n_(n), ld_(ld) {
    HJSVD_ASSERT(ld >= n, "leading dimension below the column length");
  }

  std::size_t rows() const { return n_; }
  std::size_t cols() const { return n_; }
  std::size_t ld() const { return ld_; }

  double& operator()(std::size_t r, std::size_t c) const {
    HJSVD_ASSERT(r < n_ && c < n_, "matrix index out of range");
    return data_[c * ld_ + r];
  }

  std::span<double> col(std::size_t j) const {
    HJSVD_ASSERT(j < n_, "column index out of range");
    return {data_ + j * ld_, n_};
  }

 private:
  double* data_;
  std::size_t n_;
  std::size_t ld_;
};

/// The n x n view over the first n rows of an ld x n column-major block,
/// i.e. storage shaped padded_ld(n) x n.
inline SquareView square_view(Matrix& storage) {
  return {storage.data().data(), storage.cols(), storage.rows()};
}

}  // namespace hjsvd
