// Tests for the unified svd() front door.
#include "api/svd.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

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
                      SvdMethod::kParallelHestenes,
                      SvdMethod::kParallelModifiedHestenes,
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
  EXPECT_STRNE(svd_method_name(SvdMethod::kParallelHestenes),
               svd_method_name(SvdMethod::kParallelModifiedHestenes));
}

TEST(SvdApi, PooledParallelMethodMatchesSequentialBitForBit) {
  // threads > 1 runs the blocked engine on an ephemeral engine's pool;
  // threads = 1 runs its loops inline.  Both match the sequential method.
  Rng rng(98);
  const Matrix a = random_gaussian(17, 12, rng);
  SvdOptions opt;
  opt.compute_u = true;
  opt.compute_v = true;
  const SvdResult seq = svd(a, opt);
  opt.method = SvdMethod::kParallelModifiedHestenes;
  for (std::size_t threads : {0u, 1u, 2u, 4u}) {
    opt.threads = threads;
    const SvdResult r = svd(a, opt);
    ASSERT_EQ(r.singular_values.size(), seq.singular_values.size());
    for (std::size_t i = 0; i < seq.singular_values.size(); ++i)
      EXPECT_EQ(fp::to_bits(r.singular_values[i]),
                fp::to_bits(seq.singular_values[i]))
          << "threads " << threads << " value " << i;
    for (std::size_t i = 0; i < seq.u.data().size(); ++i)
      EXPECT_EQ(fp::to_bits(r.u.data()[i]), fp::to_bits(seq.u.data()[i]))
          << "threads " << threads << " U entry " << i;
  }
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
  Rng rng(99);
  const auto batch = make_batch(rng);
  SvdOptions opt;
  opt.method = SvdMethod::kParallelModifiedHestenes;
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
