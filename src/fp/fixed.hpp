// Fixed-point arithmetic substrate.
//
// The prior FPGA Hestenes-Jacobi design the paper improves on ([11],
// Ledesma-Carrillo et al.) computes in fixed point, which limits both the
// dynamic range and the analyzable matrix sizes; the paper's choice of
// IEEE-754 double precision is motivated by exactly this ("to provide a
// wider dynamic range", Sections I and V.B).  This module provides a
// bit-faithful simulation of Qm.f fixed-point arithmetic (two's complement,
// round-to-nearest, saturation) as an arithmetic policy pluggable into the
// same SVD kernels, so the dynamic-range failure is demonstrable
// (bench_ablation_fixedpoint).
//
// Representation: values are kept as doubles constrained to the Q-grid
// (integer multiples of 2^-frac_bits within the saturation range), which is
// exact as long as total_bits <= 53 — true for every hardware-realistic
// format.
#pragma once

#include <cstdint>

#include "common/error.hpp"

namespace hjsvd::fp {

/// A Qm.f two's-complement fixed-point format: total_bits = 1 (sign) +
/// integer_bits + frac_bits.
struct FixedFormat {
  int integer_bits = 15;
  int frac_bits = 16;

  int total_bits() const { return 1 + integer_bits + frac_bits; }
  /// Largest representable value.
  double max_value() const;
  /// Quantization step 2^-frac_bits.
  double resolution() const;
};

/// Event counters for a fixed-point run: saturations are the signature of a
/// dynamic-range failure, underflows of a resolution failure.
struct FixedStats {
  std::uint64_t operations = 0;
  std::uint64_t saturations = 0;   // clamped to +-max
  std::uint64_t underflows = 0;    // non-zero value quantized to zero
};

/// Quantizes x onto the format's grid (round to nearest, saturate).
double fixed_quantize(double x, const FixedFormat& fmt,
                      FixedStats* stats = nullptr);

/// Arithmetic policy: every operation result is quantized onto the Q-grid,
/// exactly as a fixed-point datapath of that width would behave (a single
/// multiplier output register, no extended accumulators).
class FixedOps {
 public:
  FixedOps(const FixedFormat& fmt, FixedStats& stats)
      : fmt_(&fmt), stats_(&stats) {}

  double add(double a, double b) const { return q(a + b); }
  double sub(double a, double b) const { return q(a - b); }
  double mul(double a, double b) const { return q(a * b); }
  double div(double a, double b) const { return q(a / b); }
  double sqrt(double a) const;

 private:
  double q(double x) const { return fixed_quantize(x, *fmt_, stats_); }

  const FixedFormat* fmt_;
  FixedStats* stats_;
};

}  // namespace hjsvd::fp
