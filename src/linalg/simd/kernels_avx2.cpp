// AVX2 backend (4 x double lanes).  Compiled with -mavx2 only in this TU.
//
// Bit-identity argument (docs/ALGORITHM.md §9): vmulpd/vaddpd/vsubpd/vdivpd
// and vsqrtpd are IEEE-754 correctly rounded, the kernels never use FMA, and
// the bit-identical tier performs no reassociation — each lane executes the
// scalar reference's operation sequence verbatim, so each lane's bits equal
// the scalar result.  Sign flips are bitwise XOR of the sign bit, exactly
// what negation does on every IEEE value including zeros and NaNs.
#include <immintrin.h>

#include "linalg/simd/backend.hpp"

namespace hjsvd::simd::detail {
namespace {

void rotate_pair_avx2(double* x, double* y, std::size_t n, double c,
                      double s) {
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vs = _mm256_set1_pd(s);
  const std::size_t body = n - n % 4;
  std::size_t r = 0;
  for (; r < body; r += 4) {
    const __m256d xr = _mm256_loadu_pd(x + r);
    const __m256d yr = _mm256_loadu_pd(y + r);
    _mm256_storeu_pd(
        x + r, _mm256_sub_pd(_mm256_mul_pd(xr, vc), _mm256_mul_pd(yr, vs)));
    _mm256_storeu_pd(
        y + r, _mm256_add_pd(_mm256_mul_pd(xr, vs), _mm256_mul_pd(yr, vc)));
  }
  for (; r < n; ++r) {
    const double xr = x[r];
    const double yr = y[r];
    x[r] = xr * c - yr * s;
    y[r] = xr * s + yr * c;
  }
}

void rotation_batch_avx2(std::size_t count, const double* norm_jj,
                         const double* norm_ii, const double* cov, double* t,
                         double* c, double* s, std::uint8_t* rotate) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d four = _mm256_set1_pd(4.0);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d sign_mask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL)));
  const __m256d prescale_hi = _mm256_set1_pd(kRotationPrescaleHi);
  const __m256d prescale_lo = _mm256_set1_pd(kRotationPrescaleLo);
  const std::size_t body = count - count % 4;
  std::size_t l = 0;
  for (; l < body; l += 4) {
    const __m256d vjj = _mm256_loadu_pd(norm_jj + l);
    const __m256d vii = _mm256_loadu_pd(norm_ii + l);
    const __m256d vcv = _mm256_loadu_pd(cov + l);
    const __m256d diff = _mm256_sub_pd(vjj, vii);
    const __m256d abs_diff = _mm256_and_pd(diff, abs_mask);
    const __m256d abs_cov = _mm256_and_pd(vcv, abs_mask);
    // sign(t): (diff < 0) != (cov < 0), as an all-ones lane mask.
    const __m256d t_negative =
        _mm256_xor_pd(_mm256_cmp_pd(diff, zero, _CMP_LT_OQ),
                      _mm256_cmp_pd(vcv, zero, _CMP_LT_OQ));
    const __m256d flip = _mm256_and_pd(t_negative, sign_mask);
    // Lanes outside the pre-scaling band are redone by the canonical scalar
    // path below; the unscaled fast path here matches the scalar in-band
    // arithmetic operation for operation.
    const __m256d amax = _mm256_max_pd(abs_diff, abs_cov);
    const __m256d out_of_band =
        _mm256_or_pd(_mm256_cmp_pd(amax, prescale_hi, _CMP_GE_OQ),
                     _mm256_cmp_pd(amax, prescale_lo, _CMP_LT_OQ));
    const __m256d cov_zero = _mm256_cmp_pd(vcv, zero, _CMP_EQ_OQ);
    const __m256d d2 = _mm256_mul_pd(diff, diff);
    const __m256d c2 = _mm256_mul_pd(vcv, vcv);
    const __m256d vs2 = _mm256_add_pd(d2, _mm256_mul_pd(four, c2));
    const __m256d vr = _mm256_sqrt_pd(vs2);
    const __m256d t_mag =
        _mm256_div_pd(_mm256_mul_pd(two, abs_cov),
                      _mm256_add_pd(abs_diff, vr));
    const __m256d vt = _mm256_xor_pd(t_mag, flip);
    const __m256d adr = _mm256_mul_pd(abs_diff, vr);
    const __m256d den = _mm256_add_pd(vs2, adr);
    const __m256d c2x2 = _mm256_mul_pd(two, c2);
    const __m256d num = _mm256_add_pd(_mm256_add_pd(d2, c2x2), adr);
    const __m256d vcos = _mm256_sqrt_pd(_mm256_div_pd(num, den));
    const __m256d vsin =
        _mm256_xor_pd(_mm256_sqrt_pd(_mm256_div_pd(c2x2, den)), flip);
    // cov == 0 lanes: identity, rotate = 0 (matches the scalar early-out).
    _mm256_storeu_pd(t + l, _mm256_andnot_pd(cov_zero, vt));
    _mm256_storeu_pd(c + l, _mm256_blendv_pd(vcos, one, cov_zero));
    _mm256_storeu_pd(s + l, _mm256_andnot_pd(cov_zero, vsin));
    const int zero_bits = _mm256_movemask_pd(cov_zero);
    for (int lane = 0; lane < 4; ++lane)
      rotate[l + lane] = static_cast<std::uint8_t>(~zero_bits >> lane & 1);
    const int redo_bits = _mm256_movemask_pd(out_of_band);
    if (redo_bits != 0) {
      for (int lane = 0; lane < 4; ++lane) {
        if ((redo_bits >> lane & 1) == 0) continue;
        const std::size_t k = l + static_cast<std::size_t>(lane);
        rotation_lane(norm_jj[k], norm_ii[k], cov[k], t + k, c + k, s + k,
                      rotate + k);
      }
    }
  }
  for (; l < count; ++l)
    rotation_lane(norm_jj[l], norm_ii[l], cov[l], t + l, c + l, s + l,
                  rotate + l);
}

double dot_relaxed_avx2(const double* x, const double* y, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t body = n - n % 4;
  std::size_t i = 0;
  for (; i < body; i += 4)
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  // Reduce as (a0+a2) + (a1+a3); the scalar backend mirrors this order.
  const __m128d halves = _mm_add_pd(_mm256_castpd256_pd128(acc),
                                    _mm256_extractf128_pd(acc, 1));
  double sum = _mm_cvtsd_f64(halves) +
               _mm_cvtsd_f64(_mm_unpackhi_pd(halves, halves));
  for (; i < n; ++i) sum += x[i] * y[i];
  return sum;
}

double squared_norm_relaxed_avx2(const double* x, std::size_t n) {
  return dot_relaxed_avx2(x, x, n);
}

}  // namespace

const Backend& avx2_backend() {
  static const Backend backend{rotate_pair_avx2, rotation_batch_avx2,
                               dot_relaxed_avx2, squared_norm_relaxed_avx2};
  return backend;
}

}  // namespace hjsvd::simd::detail
