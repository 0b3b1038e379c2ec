// Arithmetic policies for the numerical kernels.
//
// Every kernel in src/svd is templated on an Ops policy so a single code
// path can run in three modes:
//   NativeOps   — host FPU doubles (fast; used for large experiments),
//   SoftOps     — bit-accurate soft-float (models the Coregen cores;
//                 used by the fidelity tests),
//   CountingOps — native arithmetic plus operation counting (ablations).
//
// The differential tests in tests/fp assert that NativeOps and SoftOps are
// bit-identical on the operations the architecture performs, which is what
// justifies running the big sweeps with NativeOps (DESIGN.md §6).
#pragma once

#include <cmath>

#include "fp/latency.hpp"
#include "fp/softfloat.hpp"

namespace hjsvd::fp {

/// Host-FPU arithmetic (IEEE-754 binary64, round-to-nearest-even).
struct NativeOps {
  static double add(double a, double b) { return a + b; }
  static double sub(double a, double b) { return a - b; }
  static double mul(double a, double b) { return a * b; }
  static double div(double a, double b) { return a / b; }
  static double sqrt(double a) { return std::sqrt(a); }
};

/// Bit-accurate software model of the hardware floating-point cores.
struct SoftOps {
  static double add(double a, double b) { return sf_add(a, b); }
  static double sub(double a, double b) { return sf_sub(a, b); }
  static double mul(double a, double b) { return sf_mul(a, b); }
  static double div(double a, double b) { return sf_div(a, b); }
  static double sqrt(double a) { return sf_sqrt(a); }
};

/// Native arithmetic that tallies operation counts into a caller-provided
/// OpCounts instance (stateful, therefore methods are non-static).
class CountingOps {
 public:
  explicit CountingOps(OpCounts& counts) : counts_(&counts) {}

  double add(double a, double b) const { ++counts_->add; return a + b; }
  double sub(double a, double b) const { ++counts_->sub; return a - b; }
  double mul(double a, double b) const { ++counts_->mul; return a * b; }
  double div(double a, double b) const { ++counts_->div; return a / b; }
  double sqrt(double a) const { ++counts_->sqrt; return std::sqrt(a); }

 private:
  OpCounts* counts_;
};

}  // namespace hjsvd::fp
