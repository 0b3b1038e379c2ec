// Runtime-dispatched SIMD kernels for the Hestenes-Jacobi hot loops.
//
// The paper gets its speedup by evaluating eqs. (8)-(12) in parallel
// hardware; on a CPU host the same loops vectorize (Novaković's thread-
// parallel Jacobi vectorization): batches of order-2 rotation problems are
// solved in lockstep across lanes and the paired column/covariance updates
// are element-wise vector arithmetic.
//
// Two tiers with different contracts:
//
//  * Bit-identical tier (rotate_pair, rotation_hardware_batch): purely
//    element-wise lane math — mul/sub/add/div/sqrt per lane, no FMA, no
//    reassociation.  Every AVX2 arithmetic instruction used here is IEEE-754
//    correctly rounded, so each lane computes exactly the bits of the scalar
//    reference and results are bitwise independent of the dispatch level.
//    The engines call these unconditionally.
//
//  * Relaxed tier (dot_relaxed, squared_norm_relaxed): 4-lane-split
//    accumulation reassociates the reduction, so results differ from the
//    strict left-to-right scalar kernels by O(n*eps) — but NOT between
//    dispatch levels: the portable backend emulates the AVX2 lane
//    accumulation and reduction order exactly, so relaxed results never
//    depend on the host CPU (deterministic, just differently associated).
//    Engines use these only under the opt-in SvdOptions::simd_relaxed.
//
// Dispatch: the backend is chosen once, at first use, from (a) the
// HJSVD_SIMD CMake toggle (OFF compiles the AVX2 backend out entirely),
// (b) runtime CPUID (AVX2 support), and (c) the HJSVD_SIMD environment
// variable: "off"/"scalar" force the portable backend, "avx2" requires the
// vector backend (error when unavailable), "auto"/unset picks the best
// available.  set_level() overrides the choice at runtime (test hook).
//
// See docs/ALGORITHM.md §9 for the lane layout and the bit-identity
// argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace hjsvd::simd {

/// Dispatchable kernel backends.
enum class Level {
  kScalar,  // portable backend (also the AVX2-emulating relaxed reducer)
  kAvx2,    // 4 x double AVX2 backend
};

/// Name for logs/manifests ("scalar", "avx2").
const char* level_name(Level level);

/// True when the AVX2 backend was compiled in (HJSVD_SIMD=ON and the
/// compiler supports -mavx2).
bool compiled_with_avx2();

/// True when the CPU executing this process supports AVX2.
bool cpu_has_avx2();

/// The level the dispatcher is currently using.  Resolved on first use from
/// build toggle + CPUID + the HJSVD_SIMD environment variable.
Level active_level();

/// Force a dispatch level (test hook; also used by the CLI's --simd flag).
/// Throws hjsvd::Error if kAvx2 is requested but compiled out or not
/// supported by the CPU.  Returns the previously active level.  Not
/// thread-safe against concurrent kernel calls; call before starting work.
Level set_level(Level level);

// ---- bit-identical tier --------------------------------------------------

/// In-place plane rotation of two equal-length vectors (paper eqs. 11-12):
///   x[r] <- x[r]*c - y[r]*s ;  y[r] <- x[r]*s + y[r]*c
/// (both outputs from the original x[r], y[r]).  Bitwise identical to the
/// scalar loop at every dispatch level.
void rotate_pair(std::span<double> x, std::span<double> y, double c,
                 double s);

/// Batched hardware-form rotation generation: lane l solves the 2x2 problem
/// (norm_jj[l], norm_ii[l], cov[l]) producing exactly the bits of
/// rotation_hardware<fp::NativeOps>, 4 problems per vector op.  Lanes whose
/// amax leaves the pre-scaling band of linalg/rotation.hpp are redone by the
/// canonical scalar path (same bits, rare).  cov[l] == 0 lanes produce the
/// identity (t=0, c=1, s=0) with rotate[l] == 0.  Inputs must be finite —
/// enforced by the hjsvd::rotation_hardware_batch wrapper in
/// linalg/kernels.hpp, which engine code should call instead.
void rotation_hardware_batch(std::size_t count, const double* norm_jj,
                             const double* norm_ii, const double* cov,
                             double* t, double* c, double* s,
                             std::uint8_t* rotate);

// ---- relaxed tier --------------------------------------------------------

/// Dot product with 4-lane-split accumulation; identical bits at every
/// dispatch level, |result - exact| <= ~n*eps*sum|x_i y_i| like any
/// recursive summation.  NOT bitwise equal to hjsvd::dot.
double dot_relaxed(std::span<const double> x, std::span<const double> y);

/// Squared 2-norm with 4-lane-split accumulation (see dot_relaxed).
double squared_norm_relaxed(std::span<const double> x);

}  // namespace hjsvd::simd
