// Fixed-point plain Hestenes-Jacobi — a model of the prior FPGA design [11]
// (Ledesma-Carrillo et al.): the recomputing one-sided Jacobi executed in
// Qm.f fixed-point arithmetic.  Used by the dynamic-range ablation to show
// why the paper moved to IEEE-754 double precision.
#pragma once

#include "fp/fixed.hpp"
#include "linalg/matrix.hpp"
#include "linalg/residuals.hpp"
#include "svd/hestenes.hpp"

namespace hjsvd {

/// Runs the plain Hestenes-Jacobi SVD entirely in the given fixed-point
/// format; `stats` reports saturation/underflow events (the failure
/// signature when the data's dynamic range exceeds the format).  Singular
/// values only: a saturated run has no orthonormal U to complete, so
/// `cfg.compute_u` or `cfg.compute_v` throws hjsvd::Error before any sweep.
SvdResult fixed_point_hestenes_svd(const Matrix& a, const fp::FixedFormat& fmt,
                                   fp::FixedStats& stats,
                                   const HestenesConfig& cfg = {});

}  // namespace hjsvd
