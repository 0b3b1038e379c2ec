#include "svd/block_hestenes.hpp"

#include <algorithm>

#include "fp/ops.hpp"
#include "linalg/kernels.hpp"
#include "svd/obs_hooks.hpp"
#include "svd/ordering.hpp"
#include "svd/plain_hestenes_impl.hpp"  // rotate_columns, finalize_column_result
#include "svd/rotation.hpp"

namespace hjsvd {
namespace {

/// Column indices of block b under a fixed block partition.
struct BlockRange {
  std::size_t begin, end;
};

std::vector<BlockRange> partition(std::size_t n, std::size_t block) {
  std::vector<BlockRange> out;
  for (std::size_t b = 0; b < n; b += block)
    out.push_back({b, std::min(n, b + block)});
  return out;
}

/// Orthogonalizes every column pair inside [lo1, hi1) U [lo2, hi2) with
/// row-cyclic order, rotating R (and V).  Returns rotations applied.
std::uint64_t orthogonalize_union(Matrix& r, Matrix* v, BlockRange b1,
                                  BlockRange b2, RotationFormula formula,
                                  std::size_t inner_sweeps,
                                  std::uint64_t& skipped) {
  const fp::NativeOps ops;
  std::vector<std::size_t> cols;
  for (std::size_t c = b1.begin; c < b1.end; ++c) cols.push_back(c);
  if (b2.begin != b1.begin)
    for (std::size_t c = b2.begin; c < b2.end; ++c) cols.push_back(c);

  std::uint64_t rotations = 0;
  for (std::size_t pass = 0; pass < inner_sweeps; ++pass) {
    for (std::size_t a = 0; a + 1 < cols.size(); ++a) {
      for (std::size_t b = a + 1; b < cols.size(); ++b) {
        const std::size_t i = cols[a];
        const std::size_t j = cols[b];
        const double nii = squared_norm(r.col(i));
        const double njj = squared_norm(r.col(j));
        const double cov = dot(r.col(i), r.col(j));
        const RotationParams p = compute_rotation(formula, njj, nii, cov, ops);
        if (!p.rotate) {
          ++skipped;
          continue;
        }
        detail::rotate_columns(r, i, j, p.cos, p.sin, ops);
        if (v != nullptr) detail::rotate_columns(*v, i, j, p.cos, p.sin, ops);
        ++rotations;
      }
    }
  }
  return rotations;
}

}  // namespace

SvdResult block_hestenes_svd(const Matrix& a, const BlockHestenesConfig& cfg,
                             HestenesStats* stats) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  HJSVD_ENSURE(m > 0 && n > 0, "matrix must be non-empty");
  HJSVD_ENSURE(all_finite(a), "input matrix must be finite (no NaN/inf)");
  HJSVD_ENSURE(cfg.block_size > 0, "block size must be positive");
  HJSVD_ENSURE(cfg.max_sweeps > 0 && cfg.inner_sweeps > 0,
               "need at least one sweep");

  Matrix r = a;
  const bool need_v = cfg.compute_v;
  Matrix v;
  if (need_v) v = Matrix::identity(n);
  if (stats != nullptr) *stats = HestenesStats{};

  const auto blocks = partition(n, cfg.block_size);
  // Block-level round-robin: every block pair once per sweep; with a single
  // block, one self-visit covers all pairs.
  std::vector<Pair> block_pairs;
  if (blocks.size() == 1) {
    block_pairs.emplace_back(0, 0);
  } else {
    block_pairs = sweep_pairs(Ordering::kRoundRobin, blocks.size());
  }

  SvdResult result;
  std::size_t sweeps_done = 0;
  std::uint64_t total_rotations = 0, total_skipped = 0;
  auto* metrics = obs::active(cfg.obs.metrics);
  auto* watchdog = obs::active(cfg.obs.watchdog);
  auto* deadline = obs::active(cfg.obs.deadline);
  // Per-pair values are internal to orthogonalize_union, so the block
  // engine feeds the probe at sweep/finalize granularity only.
  auto* numerics = obs::active(cfg.obs.numerics);
  const fp::NativeOps ops;
  for (std::size_t sweep = 0; sweep < cfg.max_sweeps; ++sweep) {
    std::uint64_t rotations = 0, skipped = 0;
    for (const auto& [bi, bj] : block_pairs) {
      rotations += orthogonalize_union(r, need_v ? &v : nullptr, blocks[bi],
                                       blocks[bj], cfg.formula,
                                       cfg.inner_sweeps, skipped);
    }
    ++sweeps_done;
    total_rotations += rotations;
    total_skipped += skipped;
    Matrix d;
    const bool need_gram = (stats != nullptr && cfg.track_convergence) ||
                           metrics != nullptr || watchdog != nullptr ||
                           numerics != nullptr || cfg.tolerance > 0.0;
    if (need_gram) d = gram_upper_ops(r, ops);
    detail::record_sweep_metrics(metrics, watchdog, deadline, numerics, sweep, d,
                                 rotations, skipped);
    if (stats != nullptr) {
      stats->total_rotations += rotations;
      stats->total_skipped += skipped;
      if (cfg.track_convergence)
        stats->sweeps.push_back(detail::make_record(d, rotations, skipped));
    }
    if (cfg.tolerance > 0.0 && max_relative_offdiag(d) < cfg.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.sweeps = sweeps_done;
  if (cfg.tolerance == 0.0) {
    result.converged = max_relative_offdiag(gram_upper_ops(r, ops)) < 1e-10;
  }
  detail::record_run_metrics(metrics, m, n, sweeps_done, total_rotations,
                             total_skipped, result.converged);

  // B = R = U * Sigma: the plain engine's extraction, U re-orthonormalized.
  detail::finalize_column_result(r, v, cfg.compute_u, cfg.compute_v, result,
                                 ops);
  if (numerics != nullptr) numerics->observe_finalize(a, result);
  return result;
}

}  // namespace hjsvd
