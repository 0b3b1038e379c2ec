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
  using value_type = double;

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

/// Dense column-major matrix in an arbitrary scalar type.  The working
/// storage of the mixed-precision engine's float phase (docs/ALGORITHM.md
/// §10); interface-compatible with Matrix so the templated rotation/update
/// helpers in svd/hestenes_impl.hpp accept either.
template <class T>
class MatrixT {
 public:
  using value_type = T;

  MatrixT() = default;

  MatrixT(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, T(0)) {}

  static MatrixT identity(std::size_t n) {
    MatrixT m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T(1);
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) {
    HJSVD_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[c * rows_ + r];
  }
  T operator()(std::size_t r, std::size_t c) const {
    HJSVD_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[c * rows_ + r];
  }

  std::span<T> col(std::size_t j) {
    HJSVD_ASSERT(j < cols_, "column index out of range");
    return {data_.data() + j * rows_, rows_};
  }
  std::span<const T> col(std::size_t j) const {
    HJSVD_ASSERT(j < cols_, "column index out of range");
    return {data_.data() + j * rows_, rows_};
  }

  std::span<T> data() { return data_; }
  std::span<const T> data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

/// Leading dimension of an n x n work matrix of T: the smallest ld >= n
/// whose column stride in bytes is an odd multiple of 64 B (one cache
/// line).  A row walk d(i, k), k = 0, 1, ... then visits every L1 set
/// instead of the few a power-of-two stride maps onto (doubles:
/// 256 -> 264, 248 -> 248, 64 -> 72; docs/ALGORITHM.md §4).
template <class T>
constexpr std::size_t padded_ld(std::size_t n) {
  static_assert(64 % sizeof(T) == 0, "element size must divide a cache line");
  constexpr std::size_t kLine = 64 / sizeof(T);
  std::size_t lines = (n + kLine - 1) / kLine;
  if (lines % 2 == 0) ++lines;
  return lines * kLine;
}

/// Non-owning n x n column-major view with leading dimension ld >= n: entry
/// (r, c) lives at data[c * ld + r].  Interface-compatible with Matrix and
/// MatrixT for the templated readers of the covariance matrix D (rows/cols,
/// operator(), contiguous col(j) of length n).  Like std::span, constness
/// of the view does not propagate to the elements.
template <class T>
class SquareView {
 public:
  using value_type = T;

  SquareView(T* data, std::size_t n, std::size_t ld)
      : data_(data), n_(n), ld_(ld) {
    HJSVD_ASSERT(ld >= n, "leading dimension below the column length");
  }

  std::size_t rows() const { return n_; }
  std::size_t cols() const { return n_; }
  std::size_t ld() const { return ld_; }

  T& operator()(std::size_t r, std::size_t c) const {
    HJSVD_ASSERT(r < n_ && c < n_, "matrix index out of range");
    return data_[c * ld_ + r];
  }

  std::span<T> col(std::size_t j) const {
    HJSVD_ASSERT(j < n_, "column index out of range");
    return {data_ + j * ld_, n_};
  }

 private:
  T* data_;
  std::size_t n_;
  std::size_t ld_;
};

/// The n x n view over the first n rows of an ld x n column-major block
/// (Matrix or MatrixT), i.e. storage shaped padded_ld<T>(n) x n.
template <class M>
SquareView<typename M::value_type> square_view(M& storage) {
  return {storage.data().data(), storage.cols(), storage.rows()};
}

}  // namespace hjsvd
