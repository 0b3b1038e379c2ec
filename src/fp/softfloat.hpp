// Bit-accurate software model of IEEE-754 binary64 arithmetic.
//
// The paper's accelerator is built from Xilinx Coregen double-precision
// floating-point cores (add/sub, mul, div, sqrt), which implement IEEE-754
// with round-to-nearest-even.  This module reimplements those five
// operations purely with integer arithmetic so that
//   (a) the simulated datapath has an explicit, testable definition of the
//       hardware's numerics, independent of the host FPU, and
//   (b) we can *prove by differential test* that native `double` arithmetic
//       on the host produces bit-identical results, which justifies running
//       the large-scale simulations with native doubles (see DESIGN.md §6).
//
// Semantics: round-to-nearest-even, full subnormal support, IEEE special
// values.  NaN propagation: an input NaN is returned quieted (payload
// preserved); invalid operations produce the canonical quiet NaN.  Exception
// flags are not modeled (the Coregen cores expose them but the paper's
// design does not consume them).
#pragma once

#include <bit>
#include <cstdint>

namespace hjsvd::fp {

/// Reinterprets a double as its IEEE-754 bit pattern.
inline std::uint64_t to_bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Reinterprets an IEEE-754 bit pattern as a double.
inline double from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }

// --- Bit-level operations -------------------------------------------------

std::uint64_t f64_add(std::uint64_t a, std::uint64_t b);
std::uint64_t f64_sub(std::uint64_t a, std::uint64_t b);
std::uint64_t f64_mul(std::uint64_t a, std::uint64_t b);
std::uint64_t f64_div(std::uint64_t a, std::uint64_t b);
std::uint64_t f64_sqrt(std::uint64_t a);

// --- Classification helpers ------------------------------------------------

bool f64_is_nan(std::uint64_t a);
bool f64_is_inf(std::uint64_t a);
bool f64_is_zero(std::uint64_t a);
bool f64_is_subnormal(std::uint64_t a);

// --- double-typed convenience wrappers -------------------------------------

inline double sf_add(double x, double y) { return from_bits(f64_add(to_bits(x), to_bits(y))); }
inline double sf_sub(double x, double y) { return from_bits(f64_sub(to_bits(x), to_bits(y))); }
inline double sf_mul(double x, double y) { return from_bits(f64_mul(to_bits(x), to_bits(y))); }
inline double sf_div(double x, double y) { return from_bits(f64_div(to_bits(x), to_bits(y))); }
inline double sf_sqrt(double x) { return from_bits(f64_sqrt(to_bits(x))); }

}  // namespace hjsvd::fp
