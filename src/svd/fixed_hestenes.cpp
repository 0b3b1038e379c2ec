#include "svd/fixed_hestenes.hpp"

#include "svd/plain_hestenes_impl.hpp"

namespace hjsvd {

// The shared kernel templates are instantiated here for the fixed-point
// policy (kept out of hestenes.cpp so float-only users don't pay for it).
template SvdResult plain_hestenes_svd_t<fp::FixedOps>(const Matrix&,
                                                      const HestenesConfig&,
                                                      HestenesStats*,
                                                      fp::FixedOps,
                                                      WorkStealingPool*);

SvdResult fixed_point_hestenes_svd(const Matrix& a, const fp::FixedFormat& fmt,
                                   fp::FixedStats& stats,
                                   const HestenesConfig& cfg) {
  HJSVD_ENSURE(!cfg.compute_u && !cfg.compute_v,
               "the fixed-point engine computes singular values only");
  // Quantize the input first — loading the matrix into a fixed-point
  // datapath is itself a quantization.
  Matrix q = a;
  for (double& x : q.data()) x = fp::fixed_quantize(x, fmt, &stats);
  return plain_hestenes_svd_t(q, cfg, nullptr, fp::FixedOps{fmt, stats});
}

}  // namespace hjsvd
