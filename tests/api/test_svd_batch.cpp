// Tests for the work-stealing svd_batch() scheduler: the bit-identity
// matrix over (method x threads) on a mixed batch and the three contract
// regressions (whole-batch pre-validation, deterministic
// lowest-index error, worker-accounting alignment).
#include "api/svd.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fp/softfloat.hpp"
#include "linalg/generate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

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

/// Tiny and large matrices mixed, with one item that dominates the cost
/// model (more than half the batch): the tail a slow item leaves behind.
std::vector<Matrix> make_mixed_batch(Rng& rng) {
  std::vector<Matrix> batch;
  batch.push_back(random_gaussian(6, 6, rng));
  batch.push_back(random_gaussian(32, 24, rng));
  batch.push_back(random_gaussian(5, 8, rng));
  batch.push_back(random_gaussian(28, 28, rng));
  batch.push_back(random_gaussian(7, 5, rng));
  batch.push_back(random_rank_deficient(10, 10, 4, rng));
  batch.push_back(random_gaussian(64, 48, rng));  // dominant item
  return batch;
}

// The scheduler contract: results[i] bitwise equal to svd(batch[i],
// options) for every Hestenes-family method and thread count.  Every item
// runs single-threaded, so the split counters stay 0.
TEST(SvdBatchScheduler, NestedParallelBitIdentityMatrix) {
  Rng rng(2024);
  const auto batch = make_mixed_batch(rng);
  const SvdMethod methods[] = {
      SvdMethod::kModifiedHestenes,
      SvdMethod::kPlainHestenes,
  };
  for (SvdMethod method : methods) {
    SvdOptions opt;
    opt.method = method;
    opt.compute_u = true;
    opt.compute_v = true;
    std::vector<SvdResult> refs;
    refs.reserve(batch.size());
    for (const Matrix& a : batch) refs.push_back(svd(a, opt));
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
      SvdBatchStats stats;
      const auto results = svd_batch(batch, opt, threads, &stats);
      ASSERT_EQ(results.size(), batch.size());
      const std::string context = std::string(svd_method_name(method)) +
                                  " threads=" + std::to_string(threads);
      for (std::size_t b = 0; b < batch.size(); ++b)
        expect_bitwise_equal(results[b], refs[b],
                             context + " matrix " + std::to_string(b));
      EXPECT_EQ(stats.nested_splits, 0u) << context;
      EXPECT_EQ(stats.helpers_granted, 0u) << context;
    }
  }
}

// Baseline methods run single-threaded per item like every other method.
TEST(SvdBatchScheduler, BaselinesNeverSplit) {
  Rng rng(77);
  std::vector<Matrix> batch;
  batch.push_back(random_gaussian(6, 6, rng));
  batch.push_back(random_gaussian(24, 24, rng));
  SvdOptions opt;
  opt.method = SvdMethod::kGolubKahan;
  SvdBatchStats stats;
  const auto results = svd_batch(batch, opt, 4, &stats);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(stats.nested_splits, 0u);
  EXPECT_EQ(stats.helpers_granted, 0u);
}

// Satellite regression 1: a rectangular entry in a two-sided batch must be
// rejected up front — no partial work, no emissions, not even for the
// valid entries that precede it.
TEST(SvdBatchScheduler, TwoSidedRectangularEntryRejectedBeforeAnyWork) {
  Rng rng(41);
  std::vector<Matrix> batch;
  batch.push_back(random_gaussian(8, 8, rng));
  batch.push_back(random_gaussian(9, 7, rng));  // rectangular
  batch.push_back(random_gaussian(6, 6, rng));
  SvdOptions opt;
  opt.method = SvdMethod::kTwoSidedJacobi;
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  opt.trace = &trace;
  opt.metrics = &metrics;
  try {
    svd_batch(batch, opt, 2);
    FAIL() << "expected an Error for the rectangular entry";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("item 1"), std::string::npos)
        << e.what();
  }
  // Pre-validation fires before any pool, trace, or metric activity.
  EXPECT_TRUE(metrics.names().empty());
  EXPECT_TRUE(trace.snapshot().empty());
}

// Satellite regression 2: with two injected mid-run failures, the rethrown
// error is deterministically the lowest batch index — never a matter of
// which worker observed its failure first — and every other item still
// ran to completion.
TEST(SvdBatchScheduler, FirstErrorIsLowestIndexAndOthersComplete) {
  Rng rng(55);
  std::vector<Matrix> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(random_gaussian(10, 10, rng));
  batch[2](0, 0) = std::numeric_limits<double>::quiet_NaN();
  batch[5](0, 0) = std::numeric_limits<double>::quiet_NaN();
  for (int rep = 0; rep < 6; ++rep) {
    SvdBatchStats stats;
    try {
      svd_batch(batch, {}, 4, &stats);
      FAIL() << "expected the injected failures to surface";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("svd_batch: item 2"), std::string::npos) << what;
      EXPECT_EQ(what.find("item 5"), std::string::npos) << what;
    }
    EXPECT_EQ(stats.items_failed, 2u);
    EXPECT_EQ(stats.items_ok, 6u);
  }
}

// Satellite regression 3: for a batch smaller than the thread budget, the
// batch.workers gauge, the per-worker gauges, the trace timelines, and the
// stats all agree on the *actual* pool width.
TEST(SvdBatchScheduler, WorkerAccountingMatchesRealityForSmallBatches) {
  Rng rng(66);
  std::vector<Matrix> batch;
  batch.push_back(random_gaussian(9, 9, rng));
  batch.push_back(random_gaussian(12, 8, rng));
  SvdOptions opt;
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  opt.trace = &trace;
  opt.metrics = &metrics;
  SvdBatchStats stats;
  const auto results = svd_batch(batch, opt, 16, &stats);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(stats.workers, 2u);
  EXPECT_EQ(stats.requested_workers, 16u);
  ASSERT_EQ(stats.worker_busy_s.size(), 2u);
  ASSERT_EQ(stats.worker_idle_s.size(), 2u);
  if (!obs::kEnabled) return;  // no metrics or trace are recorded
  EXPECT_EQ(metrics.gauge("batch.workers"), 2.0);
  EXPECT_EQ(metrics.gauge("batch.workers.requested"), 16.0);
  const auto names = metrics.names();
  const std::set<std::string> name_set(names.begin(), names.end());
  EXPECT_TRUE(name_set.count("batch.worker.0.busy_s"));
  EXPECT_TRUE(name_set.count("batch.worker.1.idle_s"));
  EXPECT_FALSE(name_set.count("batch.worker.2.busy_s"));
  // Exactly one registered timeline per pool worker — counted from the
  // thread_name metadata so workers that happened to drain no items (the
  // other one was faster) still show up.
  const std::string json = trace.to_json();
  std::size_t timelines = 0;
  for (std::size_t pos = json.find("svd_batch worker");
       pos != std::string::npos; pos = json.find("svd_batch worker", pos + 1))
    ++timelines;
  EXPECT_EQ(timelines, 2u);
}

// The scheduler surfaces its behaviour through the optional stats
// out-param even on plain successful runs.
TEST(SvdBatchScheduler, StatsDescribeTheRun) {
  Rng rng(88);
  const auto batch = make_mixed_batch(rng);
  SvdBatchStats stats;
  const auto results = svd_batch(batch, {}, 2, &stats);
  ASSERT_EQ(results.size(), batch.size());
  EXPECT_EQ(stats.items, batch.size());
  EXPECT_EQ(stats.workers, 2u);
  EXPECT_EQ(stats.items_ok, batch.size());
  EXPECT_EQ(stats.items_failed, 0u);
  EXPECT_GT(stats.wall_s, 0.0);
  double busy = 0.0;
  for (double b : stats.worker_busy_s) busy += b;
  EXPECT_GT(busy, 0.0);
}

TEST(SvdBatchScheduler, EmptyBatchZeroesStats) {
  SvdBatchStats stats;
  stats.items = 99;
  EXPECT_TRUE(svd_batch({}, {}, 4, &stats).empty());
  EXPECT_EQ(stats.items, 0u);
  EXPECT_EQ(stats.workers, 0u);
}

}  // namespace
}  // namespace hjsvd
