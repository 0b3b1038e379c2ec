// EngineInstance: the warm pool + per-worker workspace extraction must be
// invisible to results — decompose() bitwise equal to svd(), batch waves
// bitwise equal to per-item svd() at every thread count — while the
// serving-mode item_errors contract isolates poisoned requests.
#include "api/engine.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fp/softfloat.hpp"
#include "linalg/generate.hpp"
#include "svd/hestenes.hpp"
#include "svd/plain_hestenes.hpp"

namespace hjsvd {
namespace {

void expect_bitwise_equal(const SvdResult& got, const SvdResult& ref,
                          const std::string& context) {
  ASSERT_EQ(got.singular_values.size(), ref.singular_values.size()) << context;
  for (std::size_t i = 0; i < ref.singular_values.size(); ++i)
    EXPECT_EQ(fp::to_bits(got.singular_values[i]),
              fp::to_bits(ref.singular_values[i]))
        << context << " value " << i;
  ASSERT_EQ(got.u.data().size(), ref.u.data().size()) << context;
  for (std::size_t i = 0; i < ref.u.data().size(); ++i)
    EXPECT_EQ(fp::to_bits(got.u.data()[i]), fp::to_bits(ref.u.data()[i]))
        << context << " U entry " << i;
  ASSERT_EQ(got.v.data().size(), ref.v.data().size()) << context;
  for (std::size_t i = 0; i < ref.v.data().size(); ++i)
    EXPECT_EQ(fp::to_bits(got.v.data()[i]), fp::to_bits(ref.v.data()[i]))
        << context << " V entry " << i;
}

TEST(EngineInstance, DecomposeMatchesSvdBitwise) {
  Rng rng(11);
  const Matrix a = random_gaussian(20, 14, rng);
  for (const SvdMethod method :
       {SvdMethod::kModifiedHestenes, SvdMethod::kPlainHestenes,
        SvdMethod::kGolubKahan}) {
    SvdOptions opt;
    opt.method = method;
    opt.compute_u = true;
    opt.compute_v = true;
    const SvdResult ref = svd(a, opt);
    EngineInstance engine;
    // Repeat runs cover the cold and warm arena paths.
    for (int run = 0; run < 3; ++run)
      expect_bitwise_equal(engine.decompose(a, opt), ref,
                           std::string(svd_method_token(method)) + " run " +
                               std::to_string(run));
  }
}

TEST(EngineInstance, PooledParallelMethodsMatchSequentialRoundRobin) {
  // decompose() lends the resident pool to the plain engine's rounds once
  // they carry enough work (the 600x56 input); the result must be the
  // inline round-robin one, bit for bit.
  Rng rng(13);
  for (const Matrix& a : {random_gaussian(33, 26, rng),
                          random_gaussian(600, 56, rng)}) {
    HestenesConfig hj;
    hj.max_sweeps = 30;
    hj.tolerance = 1e-13;
    hj.ordering = Ordering::kRoundRobin;
    hj.compute_u = true;
    hj.compute_v = true;
    const SvdResult plain_ref = plain_hestenes_svd(a, hj);
    SvdOptions opt;
    opt.method = SvdMethod::kPlainHestenes;
    opt.max_sweeps = hj.max_sweeps;
    opt.tolerance = hj.tolerance;
    opt.compute_u = true;
    opt.compute_v = true;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      EngineInstance engine(EngineConfig{.threads = threads});
      expect_bitwise_equal(engine.decompose(a, opt), plain_ref,
                           std::to_string(a.rows()) + " rows, threads " +
                               std::to_string(threads) + " plain");
    }
  }
}

TEST(EngineInstance, BatchMatchesPerItemSvdAtEveryThreadCount) {
  Rng rng(23);
  std::vector<Matrix> batch;
  batch.push_back(random_gaussian(10, 10, rng));
  batch.push_back(random_gaussian(24, 16, rng));
  batch.push_back(random_gaussian(6, 9, rng));
  batch.push_back(random_gaussian(16, 16, rng));
  SvdOptions opt;
  opt.compute_v = true;
  std::vector<SvdResult> ref;
  for (const Matrix& a : batch) ref.push_back(svd(a, opt));

  for (const std::size_t threads : {1u, 2u, 4u}) {
    EngineInstance engine(EngineConfig{.threads = threads});
    // Two waves through the same engine: the second runs entirely on warm
    // workers and must not drift.
    for (int wave = 0; wave < 2; ++wave) {
      const std::vector<SvdResult> got = engine.decompose_batch(batch, opt);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        expect_bitwise_equal(got[i], ref[i],
                             "threads " + std::to_string(threads) + " wave " +
                                 std::to_string(wave) + " item " +
                                 std::to_string(i));
    }
  }
}

TEST(EngineInstance, ItemErrorsModeIsolatesPoisonedItems) {
  Rng rng(31);
  std::vector<Matrix> batch;
  batch.push_back(random_gaussian(8, 8, rng));
  Matrix poisoned = random_gaussian(8, 8, rng);
  poisoned(3, 3) = std::numeric_limits<double>::quiet_NaN();
  batch.push_back(poisoned);
  batch.push_back(random_gaussian(12, 8, rng));

  SvdOptions opt;
  EngineInstance engine(EngineConfig{.threads = 2});
  std::vector<std::exception_ptr> item_errors;
  std::vector<SvdResult> results;
  ASSERT_NO_THROW(results = engine.decompose_batch(batch, opt, nullptr,
                                                   &item_errors));
  ASSERT_EQ(item_errors.size(), batch.size());
  EXPECT_EQ(item_errors[0], nullptr);
  EXPECT_NE(item_errors[1], nullptr);
  EXPECT_EQ(item_errors[2], nullptr);
  expect_bitwise_equal(results[0], svd(batch[0], opt), "healthy item 0");
  expect_bitwise_equal(results[2], svd(batch[2], opt), "healthy item 2");

  // Without the out-param the same batch keeps svd_batch's rethrow contract.
  EXPECT_THROW((void)engine.decompose_batch(batch, opt), Error);
}

TEST(EngineInstance, BatchValidationStillThrowsInItemErrorsMode) {
  std::vector<Matrix> batch;
  batch.emplace_back(0, 0);  // empty: a caller bug, not a data failure
  std::vector<std::exception_ptr> item_errors;
  EngineInstance engine(EngineConfig{.threads = 1});
  EXPECT_THROW((void)engine.decompose_batch(batch, {}, nullptr, &item_errors),
               Error);
}

TEST(EngineInstance, WarmWavesReuseWorkspaces) {
  Rng rng(47);
  // One worker so wave-to-wave item placement cannot move between arenas.
  std::vector<Matrix> batch;
  for (int i = 0; i < 6; ++i) batch.push_back(random_gaussian(12, 9, rng));
  SvdOptions opt;
  opt.compute_u = true;
  opt.compute_v = true;
  EngineInstance engine(EngineConfig{.threads = 1});
  (void)engine.decompose_batch(batch, opt);
  const std::uint64_t cold_allocs = engine.workspace_alloc_total();
  const std::uint64_t cold_reuse = engine.workspace_reuse_total();
  EXPECT_GT(cold_allocs, 0u);
  (void)engine.decompose_batch(batch, opt);
  EXPECT_EQ(engine.workspace_alloc_total(), cold_allocs)
      << "second wave must be allocation-free";
  EXPECT_GT(engine.workspace_reuse_total(), cold_reuse);
}

}  // namespace
}  // namespace hjsvd
