// Portable backend.  The bit-identical tier is the plain reference loop;
// the relaxed tier reproduces the AVX2 backend's arithmetic *exactly* —
// four independent accumulators striding the input, reduced in the fixed
// order (a0+a2) + (a1+a3), then a strict left-to-right tail — so relaxed
// results are bitwise identical across dispatch levels.  This TU is built
// with the baseline ISA and no FMA contraction is possible (the target has
// no FMA instruction), so every statement rounds exactly once.
#include "linalg/simd/backend.hpp"

namespace hjsvd::simd::detail {
namespace {

void rotate_pair_scalar(double* x, double* y, std::size_t n, double c,
                        double s) {
  for (std::size_t r = 0; r < n; ++r) {
    const double xr = x[r];
    const double yr = y[r];
    x[r] = xr * c - yr * s;
    y[r] = xr * s + yr * c;
  }
}

void rotation_batch_scalar(std::size_t count, const double* norm_jj,
                           const double* norm_ii, const double* cov,
                           double* t, double* c, double* s,
                           std::uint8_t* rotate) {
  for (std::size_t l = 0; l < count; ++l)
    rotation_lane(norm_jj[l], norm_ii[l], cov[l], t + l, c + l, s + l,
                  rotate + l);
}

double dot_relaxed_scalar(const double* x, const double* y, std::size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  const std::size_t body = n - n % 4;
  std::size_t i = 0;
  for (; i < body; i += 4) {
    acc0 += x[i] * y[i];
    acc1 += x[i + 1] * y[i + 1];
    acc2 += x[i + 2] * y[i + 2];
    acc3 += x[i + 3] * y[i + 3];
  }
  // AVX2 reduction order: low128 + high128 gives [a0+a2, a1+a3], then the
  // scalar add of the two halves.
  double sum = (acc0 + acc2) + (acc1 + acc3);
  for (; i < n; ++i) sum += x[i] * y[i];
  return sum;
}

double squared_norm_relaxed_scalar(const double* x, std::size_t n) {
  return dot_relaxed_scalar(x, x, n);
}

}  // namespace

const Backend& scalar_backend() {
  static const Backend backend{rotate_pair_scalar, rotation_batch_scalar,
                               dot_relaxed_scalar, squared_norm_relaxed_scalar};
  return backend;
}

}  // namespace hjsvd::simd::detail
