// Tests for the classical Jacobi symmetric eigensolver.
#include "svd/jacobi_eig.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "linalg/generate.hpp"
#include "linalg/kernels.hpp"
#include "linalg/residuals.hpp"
#include "svd/hestenes.hpp"

namespace hjsvd {
namespace {

Matrix random_symmetric(std::size_t n, Rng& rng) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) a(i, j) = a(j, i) = rng.gaussian();
  return a;
}

TEST(JacobiEig, DiagonalMatrixIsItsOwnDecomposition) {
  Matrix a(4, 4);
  a(0, 0) = 1.0;
  a(1, 1) = 4.0;
  a(2, 2) = -2.0;
  a(3, 3) = 3.0;
  const EigResult r = jacobi_eigendecomposition(a);
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.eigenvalues[0], 4.0);
  EXPECT_DOUBLE_EQ(r.eigenvalues[3], -2.0);  // descending, signed
}

TEST(JacobiEig, KnownTwoByTwo) {
  // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
  const Matrix a = Matrix::from_rows({{2, 1}, {1, 2}});
  const EigResult r = jacobi_eigendecomposition(a);
  EXPECT_NEAR(r.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[1], 1.0, 1e-12);
}

TEST(JacobiEig, TraceAndFrobeniusPreserved) {
  Rng rng(61);
  const Matrix a = random_symmetric(12, rng);
  const EigResult r = jacobi_eigendecomposition(a);
  double trace = 0.0, fro2 = 0.0;
  for (std::size_t i = 0; i < 12; ++i) trace += a(i, i);
  for (double x : a.data()) fro2 += x * x;
  double eig_sum = 0.0, eig_sq = 0.0;
  for (double l : r.eigenvalues) {
    eig_sum += l;
    eig_sq += l * l;
  }
  EXPECT_NEAR(eig_sum, trace, 1e-10);
  EXPECT_NEAR(eig_sq, fro2, 1e-9);
}

TEST(JacobiEig, VectorsDiagonalize) {
  Rng rng(62);
  const Matrix a = random_symmetric(10, rng);
  JacobiEigConfig cfg;
  cfg.compute_vectors = true;
  const EigResult r = jacobi_eigendecomposition(a, cfg);
  EXPECT_LT(orthogonality_error(r.eigenvectors), 1e-11);
  // V^T A V = diag(lambda).
  const Matrix avt = matmul(a, r.eigenvectors);
  const Matrix d = matmul(r.eigenvectors.transposed(), avt);
  for (std::size_t i = 0; i < 10; ++i)
    for (std::size_t j = 0; j < 10; ++j) {
      const double expect = i == j ? r.eigenvalues[i] : 0.0;
      EXPECT_NEAR(d(i, j), expect, 1e-9);
    }
}

TEST(JacobiEig, GramEigenvaluesAreSquaredSingularValues) {
  // The Hestenes connection: eig(A^T A) == sigma(A)^2.
  Rng rng(63);
  const Matrix a = random_gaussian(20, 8, rng);
  const Matrix gram = gram_full(a);
  const EigResult eig = jacobi_eigendecomposition(gram);
  HestenesConfig hj;
  hj.max_sweeps = 30;
  hj.tolerance = 1e-14;
  const SvdResult svd = modified_hestenes_svd(a, hj);
  for (std::size_t i = 0; i < 8; ++i) {
    const double sv2 = svd.singular_values[i] * svd.singular_values[i];
    EXPECT_NEAR(eig.eigenvalues[i], sv2, 1e-9 * (1.0 + sv2));
  }
}

TEST(JacobiEig, IndefiniteSpectrumHandled) {
  Rng rng(64);
  // A - c*I shifts the spectrum negative without breaking symmetry.
  Matrix a = random_symmetric(8, rng);
  for (std::size_t i = 0; i < 8; ++i) a(i, i) -= 10.0;
  const EigResult r = jacobi_eigendecomposition(a);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.eigenvalues.back(), 0.0);
}

TEST(JacobiEig, HilbertEigenvaluesArePositiveDecreasing) {
  const EigResult r = jacobi_eigendecomposition(hilbert(8));
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_GT(r.eigenvalues[i], 0.0);
    if (i > 0) {
      EXPECT_LE(r.eigenvalues[i], r.eigenvalues[i - 1]);
    }
  }
}

TEST(JacobiEig, RejectsAsymmetricAndNonSquare) {
  EXPECT_THROW(jacobi_eigendecomposition(Matrix(3, 4)), Error);
  Matrix asym = Matrix::from_rows({{1, 2}, {3, 4}});
  EXPECT_THROW(jacobi_eigendecomposition(asym), Error);
}

}  // namespace
}  // namespace hjsvd
