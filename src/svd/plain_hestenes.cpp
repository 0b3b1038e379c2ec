#include "svd/plain_hestenes.hpp"

#include "svd/plain_hestenes_impl.hpp"

namespace hjsvd {

template SvdResult plain_hestenes_svd_t<fp::NativeOps>(
    const Matrix&, const HestenesConfig&, HestenesStats*, fp::NativeOps,
    WorkStealingPool*);
template SvdResult plain_hestenes_svd_t<fp::SoftOps>(const Matrix&,
                                                     const HestenesConfig&,
                                                     HestenesStats*,
                                                     fp::SoftOps,
                                                     WorkStealingPool*);
template SvdResult plain_hestenes_svd_t<fp::CountingOps>(
    const Matrix&, const HestenesConfig&, HestenesStats*, fp::CountingOps,
    WorkStealingPool*);

SvdResult plain_hestenes_svd(const Matrix& a, const HestenesConfig& cfg,
                             HestenesStats* stats, WorkStealingPool* pool) {
  return plain_hestenes_svd_t(a, cfg, stats, fp::NativeOps{}, pool);
}

SvdResult plain_hestenes_svd_counting(const Matrix& a,
                                      const HestenesConfig& cfg,
                                      fp::OpCounts& counts,
                                      HestenesStats* stats) {
  return plain_hestenes_svd_t(a, cfg, stats, fp::CountingOps{counts});
}

}  // namespace hjsvd
