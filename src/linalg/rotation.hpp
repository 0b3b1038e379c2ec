// Jacobi rotation parameter generation.
//
// Given the squared 2-norms of two columns and their covariance, produce the
// (t, cos, sin) that makes the rotated columns orthogonal:
//
//   A_i' = A_i*cos - A_j*sin        (paper eq. 11)
//   A_j' = A_i*sin + A_j*cos        (paper eq. 12)
//
// Two algebraically equivalent forms are provided:
//  * the textbook form of Algorithm 1 lines 11-14 (rho -> t -> cos -> sin),
//  * the hardware closed form of eqs. (8)-(10) that the rotation component
//    evaluates (no division by the possibly tiny covariance).
//
// ERRATUM (documented in DESIGN.md): Algorithm 1 line 11 prints
// rho = (norm2 - norm1)/(2 cov) with norm1 = D_jj, norm2 = D_ii; for the
// annihilation condition of the rotation direction in eqs. (11)-(12) and the
// norm updates D_jj += t*cov, D_ii -= t*cov of lines 15-16 to hold, the sign
// must be rho = (D_jj - D_ii)/(2 cov).  One can verify:
//   d_ij' = cos*sin*(d_ii - d_jj) + (cos^2 - sin^2) d_ij = 0
//   <=> (1 - t^2)/t = (d_jj - d_ii)/d_ij  <=>  t^2 + 2*rho*t - 1 = 0
// whose small root is t = sign(rho)/(|rho| + sqrt(1 + rho^2)), and then
// d_jj' = d_jj + t*d_ij, d_ii' = d_ii - t*d_ij (trace preserved).  We
// implement the self-consistent version; the hardware closed form (8)-(10)
// is sign-agnostic in magnitude and gets sign(t) = sign(rho) attached, which
// matches the "(sign)" annotation in eq. (10).
//
// NUMERIC CONTRACTS (docs/ALGORITHM.md §9):
//  * Non-finite inputs throw hjsvd::Error.  A NaN covariance would pass the
//    cov == 0 early-out and silently poison (t, cos, sin); the engines rely
//    on this check to turn a mid-run NaN into a deterministic error at the
//    first affected pair in sweep order (svd_batch then reports the
//    lowest-index failing item).
//  * Both forms are scale-invariant: (t, cos, sin) are homogeneous of
//    degree 0 in (D_jj - D_ii, cov), so when the larger magnitude leaves
//    [kRotationPrescaleLo, kRotationPrescaleHi) — where the squared
//    intermediates of eqs. (8)-(10) and the 2*cov of Algorithm 1 line 11
//    stay inside the normal double range — both inputs are pre-scaled by an
//    exact power of two before squaring.  Inside the band no scaling happens
//    and results are bitwise what the unscaled arithmetic produces.
#pragma once

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace hjsvd {

/// Which algebraic form generates (t, cos, sin).
enum class RotationFormula {
  kTextbook,  // Algorithm 1 lines 11-14 (sign-corrected, see erratum)
  kHardware,  // closed forms of eqs. (8)-(10), as the FPGA evaluates them
};

/// Rotation angle parameters for one column pair.
struct RotationParams {
  double t = 0.0;
  double cos = 1.0;
  double sin = 0.0;
  bool rotate = false;  // false when cov == 0 (already orthogonal: identity)
};

/// Pre-scaling band of max(|D_jj - D_ii|, |cov|) (binary64: emax 1023,
/// 53-bit significand):
///  * hi: amax < 2^500 keeps d2 < 2^1000, s = d2 + 4c2 < 2^1003 and
///    |diff|*r < 2^1002, all below DBL_MAX = 2^1024*(1-eps).
///  * lo: amax >= 2^-475 keeps max(d2, 4c2) >= 2^-950, so any term small
///    enough to fall subnormal (< 2^-1022) is also below half an ulp of the
///    sum (2^-1004) and rounds away exactly — subnormal rounding never
///    contaminates an in-band result.
inline constexpr double kRotationPrescaleHi = 0x1p+500;
inline constexpr double kRotationPrescaleLo = 0x1p-475;

namespace detail {

/// |rho| above which the textbook form's sqrt(1 + rho^2) collapses to |rho|.
inline constexpr double kRhoCollapse = 0x1p+510;

/// Cap on the rescale exponent: the largest finite power of two, so a
/// subnormal amax cannot produce an infinite scale; the clamped scale still
/// lands amax far inside the band.
inline constexpr int kMaxScaleExp = 1023;

inline double flip_sign_if(double x, bool negative) {
  return negative ? -x : x;
}

inline void ensure_rotation_inputs_finite(double norm_jj, double norm_ii,
                                          double cov) {
  HJSVD_ENSURE(std::isfinite(norm_jj) && std::isfinite(norm_ii) &&
                   std::isfinite(cov),
               "rotation: non-finite input (norms and covariance must be "
               "finite; a NaN here means the decomposition diverged)");
}

/// Exact power-of-two rescale of (diff, cv) bringing max(|diff|, |cv|) into
/// [0.5, 1) — or, for amax subnormal enough that 2^-e overflows, as close as
/// the largest finite power of two allows (still far inside the band).
template <class Ops>
inline void prescale_rotation_inputs(double& diff, double& cv, double amax,
                                     Ops ops) {
  int e = 0;
  std::frexp(amax, &e);
  const int shift = std::min(-e, kMaxScaleExp);
  const double scale = std::ldexp(1.0, shift);
  diff = ops.mul(diff, scale);
  cv = ops.mul(cv, scale);
}

}  // namespace detail

/// Algorithm 1 lines 11-14 (with the erratum's sign fix).
/// norm_jj = D(j,j), norm_ii = D(i,i), cov = D(i,j).
template <class Ops>
RotationParams rotation_textbook(double norm_jj, double norm_ii, double cov,
                                 Ops ops) {
  RotationParams p;
  detail::ensure_rotation_inputs_finite(norm_jj, norm_ii, cov);
  if (cov == 0.0) return p;
  p.rotate = true;
  // rho = (D_jj - D_ii) / (2*cov); the doubling is an exponent bump.
  double diff = ops.sub(norm_jj, norm_ii);
  HJSVD_ENSURE(std::isfinite(diff), "rotation: D_jj - D_ii overflows");
  double cv = cov;
  {
    const double abs_diff = diff < 0.0 ? -diff : diff;
    const double abs_cov = cv < 0.0 ? -cv : cv;
    const double amax = abs_diff > abs_cov ? abs_diff : abs_cov;
    if (amax >= kRotationPrescaleHi || amax < kRotationPrescaleLo) {
      // Exact power-of-two rescale of both inputs: brings amax into
      // [0.5, 1) so 2*cv below cannot overflow or underflow.  rho and
      // everything after it are unchanged in exact arithmetic.
      detail::prescale_rotation_inputs(diff, cv, amax, ops);
    }
  }
  const double rho = ops.div(diff, 2.0 * cv);
  // t = sign(rho) / (|rho| + sqrt(1 + rho^2))
  const double abs_rho = rho < 0.0 ? -rho : rho;
  double t_mag;
  if (abs_rho > detail::kRhoCollapse) {
    // rho^2 would overflow; sqrt(1 + rho^2) == |rho| to working precision
    // here, so the small root collapses to 1/(2|rho|).  At the seam both
    // branches are correctly-rounded images of the same real value.
    t_mag = ops.div(0.5, abs_rho);
  } else {
    const double rho2 = ops.mul(rho, rho);
    const double root = ops.sqrt(ops.add(1.0, rho2));
    t_mag = ops.div(1.0, ops.add(abs_rho, root));
  }
  p.t = detail::flip_sign_if(t_mag, rho < 0.0);
  // cos = 1 / sqrt(1 + t^2); sin = cos * t
  const double t2 = ops.mul(p.t, p.t);
  p.cos = ops.div(1.0, ops.sqrt(ops.add(1.0, t2)));
  p.sin = ops.mul(p.cos, p.t);
  return p;
}

/// Hardware closed form, eqs. (8)-(10).  Avoids dividing by the covariance,
/// which is the numerically delicate quantity near convergence.
template <class Ops>
RotationParams rotation_hardware(double norm_jj, double norm_ii, double cov,
                                 Ops ops) {
  RotationParams p;
  detail::ensure_rotation_inputs_finite(norm_jj, norm_ii, cov);
  if (cov == 0.0) return p;
  p.rotate = true;
  // With n1 = D_jj, n2 = D_ii the paper's eq. (8) uses |n2 - n1|, which
  // equals |diff| either way; the sign of t is sign(rho) = sign(diff * cov).
  double diff = ops.sub(norm_jj, norm_ii);
  HJSVD_ENSURE(std::isfinite(diff), "rotation: D_jj - D_ii overflows");
  double cv = cov;
  const bool t_negative = (diff < 0.0) != (cv < 0.0);
  double abs_diff = diff < 0.0 ? -diff : diff;
  double abs_cov = cv < 0.0 ? -cv : cv;
  const double amax = abs_diff > abs_cov ? abs_diff : abs_cov;
  if (amax >= kRotationPrescaleHi || amax < kRotationPrescaleLo) {
    // Scale-invariant slow path: d2/c2 below would overflow or drown in
    // subnormal rounding, so rescale both inputs by an exact power of two
    // that brings amax into [0.5, 1).
    detail::prescale_rotation_inputs(diff, cv, amax, ops);
    abs_diff = diff < 0.0 ? -diff : diff;
    abs_cov = cv < 0.0 ? -cv : cv;
  }
  const double d2 = ops.mul(diff, diff);
  const double c2 = ops.mul(cv, cv);
  const double s = ops.add(d2, 4.0 * c2);       // (n2-n1)^2 + 4 c^2
  const double r = ops.sqrt(s);                  // sqrt of the above
  // eq. (8): t = |2c| / (|n2-n1| + sqrt(...))
  const double t_mag = ops.div(2.0 * abs_cov, ops.add(abs_diff, r));
  p.t = detail::flip_sign_if(t_mag, t_negative);
  // eqs. (9)-(10): shared subexpressions
  const double adr = ops.mul(abs_diff, r);
  const double den = ops.add(s, adr);            // d2 + 4c^2 + |d|*r
  const double num = ops.add(ops.add(d2, 2.0 * c2), adr);
  p.cos = ops.sqrt(ops.div(num, den));
  const double sin_mag = ops.sqrt(ops.div(2.0 * c2, den));
  p.sin = detail::flip_sign_if(sin_mag, t_negative);
  return p;
}

/// Dispatch on the configured formula.
template <class Ops>
RotationParams compute_rotation(RotationFormula formula, double norm_jj,
                                double norm_ii, double cov, Ops ops) {
  return formula == RotationFormula::kTextbook
             ? rotation_textbook(norm_jj, norm_ii, cov, ops)
             : rotation_hardware(norm_jj, norm_ii, cov, ops);
}

}  // namespace hjsvd
