// Internal backend vtable of the SIMD dispatch layer.  Each backend is one
// translation unit (kernels_scalar.cpp always; kernels_avx2.cpp only when
// HJSVD_SIMD=ON and the compiler has -mavx2, compiled with -mavx2 so the
// rest of the library keeps the baseline ISA).  dispatch.cpp picks one at
// first use.  Not installed / not for use outside src/linalg/simd/.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "linalg/rotation.hpp"

namespace hjsvd::simd::detail {

struct Backend {
  void (*rotate_pair)(double* x, double* y, std::size_t n, double c,
                      double s);
  void (*rotation_hardware_batch)(std::size_t count, const double* norm_jj,
                                  const double* norm_ii, const double* cov,
                                  double* t, double* c, double* s,
                                  std::uint8_t* rotate);
  double (*dot_relaxed)(const double* x, const double* y, std::size_t n);
  double (*squared_norm_relaxed)(const double* x, std::size_t n);
};

const Backend& scalar_backend();
const Backend& avx2_backend();  // defined only when HJSVD_SIMD_AVX2

/// Plain-double arithmetic policy for instantiating the canonical rotation
/// templates inside linalg (same native IEEE ops as fp::NativeOps, which
/// linalg must not depend on).  Bitwise interchangeable with NativeOps.
struct ScalarOps {
  static double add(double a, double b) { return a + b; }
  static double sub(double a, double b) { return a - b; }
  static double mul(double a, double b) { return a * b; }
  static double div(double a, double b) { return a / b; }
  static double sqrt(double a) { return std::sqrt(a); }
};

/// One lane of the batched rotation generator: the canonical scalar path.
inline void rotation_lane(double norm_jj, double norm_ii, double cov,
                          double* t, double* c, double* s,
                          std::uint8_t* rotate) {
  const RotationParams p = rotation_hardware(norm_jj, norm_ii, cov,
                                             ScalarOps{});
  *t = p.t;
  *c = p.cos;
  *s = p.sin;
  *rotate = p.rotate ? 1 : 0;
}

}  // namespace hjsvd::simd::detail
