// The padded layout of the covariance matrix D: the leading-dimension rule,
// the SquareView over it, and bit-identity of the modified engine with a
// reference run that keeps D in an unpadded Matrix.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "fp/softfloat.hpp"
#include "linalg/generate.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/numerics.hpp"
#include "svd/hestenes_impl.hpp"
#include "svd/workspace.hpp"

namespace hjsvd {
namespace {

TEST(PaddedLd, DoublesTakeAnOddNumberOfCacheLines) {
  const std::pair<std::size_t, std::size_t> cases[] = {
      {1, 8},    {2, 8},    {7, 8},    {8, 8},    {24, 24},  {48, 56},
      {64, 72},  {248, 248}, {255, 264}, {256, 264}, {257, 264}};
  for (const auto& [n, ld] : cases)
    EXPECT_EQ(padded_ld(n), ld) << "n=" << n;
}

/// padded_ld is the *smallest* ld >= n whose byte stride is an odd multiple
/// of 64 B.
TEST(PaddedLd, IsTheSmallestOddLineStride) {
  const auto odd_lines = [](std::size_t ld) {
    return (ld * sizeof(double)) % 128 == 64;
  };
  for (std::size_t n = 1; n <= 600; ++n) {
    const std::size_t ld = padded_ld(n);
    ASSERT_GE(ld, n);
    ASSERT_TRUE(odd_lines(ld)) << "n=" << n;
    for (std::size_t c = n; c < ld; ++c)
      ASSERT_FALSE(odd_lines(c)) << "n=" << n << " smaller ld " << c;
  }
}

TEST(SquareView, IndexesTheLeadingRowsOfAPaddedBlock) {
  Matrix storage(padded_ld(5), 5);
  const auto d = square_view(storage);
  EXPECT_EQ(d.rows(), 5u);
  EXPECT_EQ(d.cols(), 5u);
  EXPECT_EQ(d.ld(), 8u);
  d(3, 2) = 7.0;
  EXPECT_EQ(storage.data()[2 * 8 + 3], 7.0);
  EXPECT_EQ(d.col(2).size(), 5u);
  EXPECT_EQ(d.col(2).data(), storage.data().data() + 16);
  EXPECT_EQ(d.col(2)[3], 7.0);
}

TEST(SquareView, MeasuresMatchTheDenseMatrix) {
  Rng rng(41);
  const Matrix a = random_gaussian(30, 13, rng);
  const Matrix dense = gram_upper(a);
  Matrix storage(padded_ld(13), 13);
  const auto view = square_view(storage);
  gram_upper_ops_into(view, a, fp::NativeOps{});
  EXPECT_EQ(fp::to_bits(max_relative_offdiag(view)),
            fp::to_bits(max_relative_offdiag(dense)));
  EXPECT_EQ(fp::to_bits(mean_abs_offdiag(view)),
            fp::to_bits(mean_abs_offdiag(dense)));
  EXPECT_EQ(fp::to_bits(offdiag_frobenius(view)),
            fp::to_bits(offdiag_frobenius(dense)));
}

/// modified_hestenes_svd_t's loop with D held in an unpadded n x n Matrix:
/// the same helpers in the same order, so any difference from the engine
/// can only come from D's layout.
template <class Ops>
SvdResult reference_on_dense_d(const Matrix& a, const HestenesConfig& cfg,
                               HestenesStats* stats, Ops ops) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  auto* metrics = obs::active(cfg.obs.metrics);
  auto* numerics = obs::active(cfg.obs.numerics);
  Matrix d = gram_upper_ops(a, ops, cfg.gram_chunk_rows);
  const bool need_v = cfg.compute_u || cfg.compute_v;
  Matrix v = need_v ? Matrix::identity(n) : Matrix();
  const auto pairs = sweep_pairs(cfg.ordering, n);
  SvdResult result;
  *stats = HestenesStats{};
  std::size_t sweeps_done = 0;
  std::uint64_t total_rotations = 0, total_skipped = 0, pair_seq = 0;
  for (std::size_t sweep = 0; sweep < cfg.max_sweeps; ++sweep) {
    std::uint64_t rotations = 0, skipped = 0;
    for (const auto& [i, j] : pairs) {
      if (numerics != nullptr && numerics->want(pair_seq))
        numerics->observe_pair(d(i, i), d(j, j), d(i, j));
      ++pair_seq;
      if (detail::apply_pair(d, need_v ? &v : nullptr, cfg, i, j, ops)) {
        ++rotations;
      } else {
        ++skipped;
      }
    }
    ++sweeps_done;
    total_rotations += rotations;
    total_skipped += skipped;
    stats->total_rotations += rotations;
    stats->total_skipped += skipped;
    if (cfg.track_convergence)
      stats->sweeps.push_back(detail::make_record(d, rotations, skipped));
    detail::record_sweep_metrics(metrics, nullptr, nullptr, numerics, sweep,
                                 d, rotations, skipped);
    if (cfg.tolerance > 0.0 && max_relative_offdiag(d) < cfg.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.sweeps = sweeps_done;
  if (cfg.tolerance == 0.0)
    result.converged = max_relative_offdiag(d) < 1e-10;
  detail::finalize_gram_result(a, detail::sqrt_diagonal(d, ops), v, cfg,
                               result, ops);
  if (numerics != nullptr) numerics->observe_finalize(a, result);
  detail::record_run_metrics(metrics, m, n, sweeps_done, total_rotations,
                             total_skipped, result.converged);
  return result;
}

void expect_same_bits(std::span<const double> got,
                      std::span<const double> want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(fp::to_bits(got[i]), fp::to_bits(want[i])) << what << " [" << i
                                                         << "]";
}

struct Run {
  SvdResult result;
  HestenesStats stats;
  std::string metrics;
  std::uint64_t samples = 0;
};

template <class Ops>
Run run(const Matrix& a, HestenesConfig cfg, Ops ops, bool reference) {
  obs::MetricsRegistry metrics;
  obs::NumericsProbe::Config pcfg;
  pcfg.stride = 3;
  obs::NumericsProbe probe(pcfg, &metrics);
  cfg.obs.metrics = &metrics;
  cfg.obs.numerics = &probe;
  Run out;
  out.result = reference ? reference_on_dense_d(a, cfg, &out.stats, ops)
                         : modified_hestenes_svd_t(a, cfg, &out.stats, ops);
  out.metrics = metrics.to_json();
  out.samples = probe.samples();
  return out;
}

void expect_same_run(const Run& got, const Run& want,
                     const std::string& what) {
  expect_same_bits(got.result.singular_values, want.result.singular_values,
                   what + " sigma");
  expect_same_bits(got.result.u.data(), want.result.u.data(), what + " U");
  expect_same_bits(got.result.v.data(), want.result.v.data(), what + " V");
  EXPECT_EQ(got.result.sweeps, want.result.sweeps) << what;
  EXPECT_EQ(got.result.converged, want.result.converged) << what;
  EXPECT_EQ(got.stats.total_rotations, want.stats.total_rotations) << what;
  EXPECT_EQ(got.stats.total_skipped, want.stats.total_skipped) << what;
  ASSERT_EQ(got.stats.sweeps.size(), want.stats.sweeps.size()) << what;
  for (std::size_t s = 0; s < got.stats.sweeps.size(); ++s) {
    const SweepRecord& g = got.stats.sweeps[s];
    const SweepRecord& w = want.stats.sweeps[s];
    EXPECT_EQ(fp::to_bits(g.mean_abs_offdiag), fp::to_bits(w.mean_abs_offdiag))
        << what << " sweep " << s;
    EXPECT_EQ(fp::to_bits(g.max_rel_offdiag), fp::to_bits(w.max_rel_offdiag))
        << what << " sweep " << s;
    EXPECT_EQ(g.rotations, w.rotations) << what << " sweep " << s;
    EXPECT_EQ(g.skipped, w.skipped) << what << " sweep " << s;
  }
  EXPECT_EQ(got.samples, want.samples) << what;
  EXPECT_EQ(got.metrics, want.metrics) << what;
}

/// Engine (padded D, with and without a warm Workspace) against the
/// unpadded reference, for shapes whose ld differs from n (13 -> 16,
/// 16 -> 24, 64 -> 72) and one where it does not (40 -> 40).
template <class Ops>
void expect_engine_matches_dense_reference(
    std::initializer_list<std::pair<std::size_t, std::size_t>> shapes,
    HestenesConfig cfg, Ops ops, const std::string& label) {
  cfg.compute_u = true;
  cfg.compute_v = true;
  cfg.track_convergence = true;
  Rng rng(2900);
  for (const auto& [m, n] : shapes) {
    const Matrix a = random_gaussian(m, n, rng);
    const std::string what =
        label + " " + std::to_string(m) + "x" + std::to_string(n);
    const Run want = run(a, cfg, ops, /*reference=*/true);
    expect_same_run(run(a, cfg, ops, false), want, what + " no workspace");
    Workspace ws;
    HestenesConfig with_ws = cfg;
    with_ws.workspace = &ws;
    for (int pass = 0; pass < 2; ++pass)
      expect_same_run(run(a, with_ws, ops, false), want,
                      what + " workspace pass " + std::to_string(pass));
  }
}

TEST(GramLayout, NativeEngineMatchesUnpaddedReferenceBitForBit) {
  HestenesConfig cfg;
  cfg.max_sweeps = 30;
  cfg.tolerance = 1e-14;
  expect_engine_matches_dense_reference({{20, 13}, {16, 16}, {40, 40},
                                         {72, 64}},
                                        cfg, fp::NativeOps{}, "native");
  cfg.tolerance = 0.0;  // fixed sweeps, default convergence check
  cfg.max_sweeps = 6;
  expect_engine_matches_dense_reference({{20, 13}}, cfg, fp::NativeOps{},
                                        "native fixed");
}

TEST(GramLayout, SoftFloatEngineMatchesUnpaddedReferenceBitForBit) {
  HestenesConfig cfg;
  cfg.max_sweeps = 6;
  expect_engine_matches_dense_reference({{20, 13}, {16, 16}}, cfg,
                                        fp::SoftOps{}, "soft");
}

}  // namespace
}  // namespace hjsvd
