// Tests for the unified svd() front door.
#include "api/svd.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "api/dispatch.hpp"
#include "common/error.hpp"
#include "fp/softfloat.hpp"
#include "common/rng.hpp"
#include "linalg/generate.hpp"
#include "linalg/kernels.hpp"

namespace hjsvd {
namespace {

class AllMethods : public ::testing::TestWithParam<SvdMethod> {};

TEST_P(AllMethods, AgreeOnASquareMatrix) {
  Rng rng(91);
  const Matrix a = random_gaussian(20, 20, rng);
  SvdOptions opt;
  opt.method = GetParam();
  const SvdResult r = svd(a, opt);
  const SvdResult ref = svd(a, {.method = SvdMethod::kGolubKahan});
  EXPECT_LT(singular_value_error(r.singular_values, ref.singular_values),
            1e-9)
      << svd_method_name(GetParam());
}

TEST_P(AllMethods, VectorsReconstructWhenRequested) {
  Rng rng(92);
  const Matrix a = random_gaussian(14, 14, rng);
  SvdOptions opt;
  opt.method = GetParam();
  opt.compute_u = true;
  opt.compute_v = true;
  const SvdResult r = svd(a, opt);
  EXPECT_LT(reconstruction_error(a, r), 1e-9) << svd_method_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Methods, AllMethods,
    ::testing::Values(SvdMethod::kModifiedHestenes, SvdMethod::kPlainHestenes,
                      SvdMethod::kTwoSidedJacobi, SvdMethod::kGolubKahan),
    [](const auto& param_info) {
      std::string name = svd_method_name(param_info.param);
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

TEST(SvdApi, RectangularDispatch) {
  Rng rng(93);
  const Matrix a = random_gaussian(18, 7, rng);
  const SvdResult hj = svd(a);  // defaults to modified Hestenes
  const SvdResult gk = svd(a, {.method = SvdMethod::kGolubKahan});
  EXPECT_LT(singular_value_error(hj.singular_values, gk.singular_values),
            1e-9);
}

TEST(SvdApi, TwoSidedRejectsRectangular) {
  EXPECT_THROW(svd(Matrix(3, 5), {.method = SvdMethod::kTwoSidedJacobi}),
               Error);
}

TEST(SvdApi, MethodNamesAreDistinct) {
  EXPECT_STRNE(svd_method_name(SvdMethod::kModifiedHestenes),
               svd_method_name(SvdMethod::kPlainHestenes));
  EXPECT_STRNE(svd_method_name(SvdMethod::kGolubKahan),
               svd_method_name(SvdMethod::kTwoSidedJacobi));
}

TEST(SvdApi, MethodTokensAndAliasesMap) {
  const std::pair<const char*, SvdMethod> documented[] = {
      {"hestenes", SvdMethod::kModifiedHestenes},
      {"modified", SvdMethod::kModifiedHestenes},
      {"parallel-modified", SvdMethod::kModifiedHestenes},
      {"block", SvdMethod::kModifiedHestenes},
      {"plain", SvdMethod::kPlainHestenes},
      {"parallel", SvdMethod::kPlainHestenes},
      {"two-sided", SvdMethod::kTwoSidedJacobi},
      {"twosided", SvdMethod::kTwoSidedJacobi},
      {"golub-kahan", SvdMethod::kGolubKahan},
      {"gk", SvdMethod::kGolubKahan},
  };
  for (const auto& [token, want] : documented) {
    SvdMethod got = SvdMethod::kGolubKahan;
    ASSERT_TRUE(svd_method_from_token(token, &got)) << token;
    EXPECT_EQ(got, want) << token;
  }
  // Every canonical token round-trips.
  for (const SvdMethod method :
       {SvdMethod::kModifiedHestenes, SvdMethod::kPlainHestenes,
        SvdMethod::kTwoSidedJacobi, SvdMethod::kGolubKahan}) {
    SvdMethod got = SvdMethod::kGolubKahan;
    ASSERT_TRUE(svd_method_from_token(svd_method_token(method), &got));
    EXPECT_EQ(got, method) << svd_method_token(method);
  }
  // Retired engines without a bitwise-equal counterpart have no alias.
  for (const char* unknown : {"pipelined", "pipelined-modified", "mixed",
                              "mixed-modified", "", "Hestenes", "blocked"}) {
    SvdMethod got = SvdMethod::kGolubKahan;
    EXPECT_FALSE(svd_method_from_token(unknown, &got)) << unknown;
    EXPECT_EQ(got, SvdMethod::kGolubKahan) << unknown;
  }
}

TEST(SvdApi, PooledParallelMethodMatchesSequentialBitForBit) {
  // threads > 1 runs the plain engine's rounds on an ephemeral engine's
  // pool once they carry enough work (the 600x56 input); smaller inputs
  // and threads = 1 run them inline.  Every path gives the same bits.
  Rng rng(98);
  for (const Matrix& a : {random_gaussian(17, 12, rng),
                          random_gaussian(600, 56, rng)}) {
    const std::string shape =
        std::to_string(a.rows()) + "x" + std::to_string(a.cols());
    SvdOptions opt;
    opt.method = SvdMethod::kPlainHestenes;
    opt.compute_u = true;
    opt.compute_v = true;
    opt.threads = 1;
    const SvdResult seq = svd(a, opt);
    for (std::size_t threads : {0u, 2u, 4u}) {
      opt.threads = threads;
      const SvdResult r = svd(a, opt);
      ASSERT_EQ(r.singular_values.size(), seq.singular_values.size());
      for (std::size_t i = 0; i < seq.singular_values.size(); ++i)
        EXPECT_EQ(fp::to_bits(r.singular_values[i]),
                  fp::to_bits(seq.singular_values[i]))
            << shape << " threads " << threads << " value " << i;
      for (std::size_t i = 0; i < seq.u.data().size(); ++i)
        EXPECT_EQ(fp::to_bits(r.u.data()[i]), fp::to_bits(seq.u.data()[i]))
            << shape << " threads " << threads << " U entry " << i;
      for (std::size_t i = 0; i < seq.v.data().size(); ++i)
        EXPECT_EQ(fp::to_bits(r.v.data()[i]), fp::to_bits(seq.v.data()[i]))
            << shape << " threads " << threads << " V entry " << i;
    }
  }
}

TEST(SvdApi, PlainRoundsPoolOnlyAboveTheWorkCutoff) {
  // rows x floor(cols / 2) row-pairs per round decide; other methods never
  // take a pool.
  const auto pooled = [](SvdMethod method, std::size_t m, std::size_t n) {
    return detail::runs_on_pool(method, Matrix(m, n));
  };
  EXPECT_FALSE(pooled(SvdMethod::kPlainHestenes, 64, 64));
  EXPECT_FALSE(pooled(SvdMethod::kPlainHestenes, 128, 128));
  EXPECT_FALSE(pooled(SvdMethod::kPlainHestenes, 181, 181));
  EXPECT_TRUE(pooled(SvdMethod::kPlainHestenes, 182, 182));
  EXPECT_TRUE(pooled(SvdMethod::kPlainHestenes, 256, 256));
  EXPECT_TRUE(pooled(SvdMethod::kPlainHestenes, 512, 64));
  EXPECT_FALSE(pooled(SvdMethod::kPlainHestenes, 100000, 1));
  EXPECT_FALSE(pooled(SvdMethod::kModifiedHestenes, 256, 256));
  EXPECT_FALSE(pooled(SvdMethod::kTwoSidedJacobi, 256, 256));
}

std::vector<Matrix> make_batch(Rng& rng) {
  std::vector<Matrix> batch;
  batch.push_back(random_gaussian(12, 12, rng));
  batch.push_back(random_gaussian(30, 9, rng));   // tall
  batch.push_back(random_gaussian(8, 21, rng));   // wide
  batch.push_back(random_rank_deficient(16, 14, 6, rng));
  batch.push_back(random_gaussian(5, 5, rng));
  batch.push_back(random_gaussian(24, 16, rng));
  return batch;
}

TEST(SvdBatch, MatchesSequentialPathBitForBit) {
  Rng rng(94);
  const auto batch = make_batch(rng);
  SvdOptions opt;
  opt.compute_u = true;
  opt.compute_v = true;
  const auto results = svd_batch(batch, opt, /*threads=*/4);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t b = 0; b < batch.size(); ++b) {
    const SvdResult ref = svd(batch[b], opt);
    ASSERT_EQ(results[b].singular_values.size(), ref.singular_values.size());
    for (std::size_t i = 0; i < ref.singular_values.size(); ++i)
      EXPECT_EQ(fp::to_bits(results[b].singular_values[i]),
                fp::to_bits(ref.singular_values[i]))
          << "matrix " << b << " value " << i;
    for (std::size_t i = 0; i < ref.u.data().size(); ++i)
      EXPECT_EQ(fp::to_bits(results[b].u.data()[i]),
                fp::to_bits(ref.u.data()[i]))
          << "matrix " << b << " U entry " << i;
  }
}

TEST(SvdBatch, ResultsIndependentOfThreadCount) {
  Rng rng(95);
  const auto batch = make_batch(rng);
  const auto one = svd_batch(batch, {}, 1);
  for (std::size_t threads : {2u, 4u, 7u}) {
    const auto many = svd_batch(batch, {}, threads);
    ASSERT_EQ(many.size(), one.size());
    for (std::size_t b = 0; b < one.size(); ++b)
      for (std::size_t i = 0; i < one[b].singular_values.size(); ++i)
        EXPECT_EQ(fp::to_bits(many[b].singular_values[i]),
                  fp::to_bits(one[b].singular_values[i]))
            << "threads " << threads << " matrix " << b;
  }
}

TEST(SvdBatch, EmptyBatchYieldsEmptyResults) {
  EXPECT_TRUE(svd_batch({}).empty());
}

TEST(SvdBatch, ValidatesTheWholeBatchUpFront) {
  Rng rng(96);
  std::vector<Matrix> batch;
  batch.push_back(random_gaussian(6, 6, rng));
  batch.push_back(Matrix());  // invalid
  EXPECT_THROW(svd_batch(batch), Error);
}

TEST(SvdBatch, SelectsParallelModifiedMethod) {
  // The retired engine's token selects the modified engine, whose bits it
  // always returned.
  Rng rng(99);
  const auto batch = make_batch(rng);
  SvdOptions opt;
  ASSERT_TRUE(svd_method_from_token("parallel-modified", &opt.method));
  opt.compute_v = true;
  const auto results = svd_batch(batch, opt, /*threads=*/3);
  ASSERT_EQ(results.size(), batch.size());
  SvdOptions seq = opt;
  seq.method = SvdMethod::kModifiedHestenes;
  for (std::size_t b = 0; b < batch.size(); ++b) {
    const SvdResult ref = svd(batch[b], seq);
    ASSERT_EQ(results[b].singular_values.size(), ref.singular_values.size());
    for (std::size_t i = 0; i < ref.singular_values.size(); ++i)
      EXPECT_EQ(fp::to_bits(results[b].singular_values[i]),
                fp::to_bits(ref.singular_values[i]))
          << "matrix " << b << " value " << i;
  }
}

TEST(SvdBatch, MoreThreadsThanMatrices) {
  Rng rng(97);
  std::vector<Matrix> batch;
  batch.push_back(random_gaussian(10, 8, rng));
  const auto results = svd_batch(batch, {}, 16);
  ASSERT_EQ(results.size(), 1u);
  const SvdResult ref = svd(batch[0]);
  for (std::size_t i = 0; i < ref.singular_values.size(); ++i)
    EXPECT_EQ(fp::to_bits(results[0].singular_values[i]),
              fp::to_bits(ref.singular_values[i]));
}

}  // namespace
}  // namespace hjsvd
