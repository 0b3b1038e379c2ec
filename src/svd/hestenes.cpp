#include "svd/hestenes.hpp"

#include "svd/hestenes_impl.hpp"

namespace hjsvd {

// Explicit instantiations for the three arithmetic policies.
template SvdResult modified_hestenes_svd_t<fp::NativeOps>(const Matrix&,
                                                          const HestenesConfig&,
                                                          HestenesStats*,
                                                          fp::NativeOps);
template SvdResult modified_hestenes_svd_t<fp::SoftOps>(const Matrix&,
                                                        const HestenesConfig&,
                                                        HestenesStats*,
                                                        fp::SoftOps);
template SvdResult modified_hestenes_svd_t<fp::CountingOps>(
    const Matrix&, const HestenesConfig&, HestenesStats*, fp::CountingOps);

template Matrix gram_upper_ops<fp::NativeOps>(const Matrix&, fp::NativeOps,
                                              std::size_t);
template Matrix gram_upper_ops<fp::SoftOps>(const Matrix&, fp::SoftOps,
                                            std::size_t);
template Matrix gram_upper_ops<fp::CountingOps>(const Matrix&, fp::CountingOps,
                                                std::size_t);
// The allocation-free form on a caller's Matrix (the engines write D
// through a SquareView instead).
template void gram_upper_ops_into<Matrix, fp::NativeOps>(Matrix&,
                                                         const Matrix&,
                                                         fp::NativeOps,
                                                         std::size_t);

SvdResult modified_hestenes_svd(const Matrix& a, const HestenesConfig& cfg,
                                HestenesStats* stats) {
  return modified_hestenes_svd_t(a, cfg, stats, fp::NativeOps{});
}

SvdResult modified_hestenes_svd_soft(const Matrix& a,
                                     const HestenesConfig& cfg,
                                     HestenesStats* stats) {
  return modified_hestenes_svd_t(a, cfg, stats, fp::SoftOps{});
}

SvdResult modified_hestenes_svd_counting(const Matrix& a,
                                         const HestenesConfig& cfg,
                                         fp::OpCounts& counts,
                                         HestenesStats* stats) {
  return modified_hestenes_svd_t(a, cfg, stats, fp::CountingOps{counts});
}

}  // namespace hjsvd
