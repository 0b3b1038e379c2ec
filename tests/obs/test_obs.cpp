// Observability layer tests: JSON validity of both serialized documents,
// span-nesting well-formedness per timeline, determinism of the
// engine-level counters/series across thread counts, and — the load-bearing
// guarantee — byte-identical SVD results with and without sinks attached.
#include "obs/guardrail.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "api/svd.hpp"
#include "arch/accelerator_sim.hpp"
#include "common/pool.hpp"
#include "common/rng.hpp"
#include "fp/ops.hpp"
#include "linalg/generate.hpp"
#include "svd/hestenes.hpp"
#include "svd/plain_hestenes.hpp"

namespace hjsvd {
namespace {

// --- Minimal strict JSON syntax checker (no external dependencies) --------
// Validates syntax only; structural assertions use TraceRecorder::snapshot()
// and MetricsRegistry's typed inspection API instead of a DOM.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[pos_ + i])))
              return false;
          }
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digits()) return false;
    if (peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }
  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

Matrix test_matrix(std::size_t m, std::size_t n, std::uint64_t seed = 7) {
  Rng rng(seed);
  return random_gaussian(m, n, rng);
}

/// Runs the modified engine with both sinks attached.
SvdResult traced_run(const Matrix& a, obs::TraceRecorder* trace,
                     obs::MetricsRegistry* metrics) {
  HestenesConfig cfg;
  cfg.compute_u = true;
  cfg.compute_v = true;
  cfg.obs.trace = trace;
  cfg.obs.metrics = metrics;
  return modified_hestenes_svd(a, cfg);
}

// --- JSON validity ---------------------------------------------------------

TEST(ObsJson, TraceDocumentIsValidJsonWithSchema) {
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  traced_run(test_matrix(24, 16), &trace, &metrics);
  const std::string doc = trace.to_json();
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc.substr(0, 400);
  EXPECT_NE(doc.find("\"schema\": \"hjsvd.trace.v2\""), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
}

TEST(ObsJson, MetricsDocumentIsValidJsonWithSchema) {
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  traced_run(test_matrix(24, 16), &trace, &metrics);
  const std::string doc = metrics.to_json();
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc.substr(0, 400);
  EXPECT_NE(doc.find("\"schema\": \"hjsvd.metrics.v1\""), std::string::npos);
}

TEST(ObsJson, ArgsBuilderEscapesStrings) {
  const std::string json = obs::ArgsBuilder()
                               .add("key", std::string_view("a\"b\\c\n\t"))
                               .add("n", std::int64_t{-3})
                               .add("x", 1.5)
                               .str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
}

TEST(ObsJson, NonFiniteMetricSerializesAsNull) {
  obs::MetricsRegistry metrics;
  metrics.gauge_set("bad.gauge", "1", std::numeric_limits<double>::infinity());
  const std::string doc = metrics.to_json();
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  EXPECT_NE(doc.find("null"), std::string::npos);
}

// --- Span structure --------------------------------------------------------

/// Span count per name in a recorded trace.
std::map<std::string, std::size_t> span_counts(
    const obs::TraceRecorder& trace) {
  std::map<std::string, std::size_t> names;
  for (const auto& e : trace.snapshot())
    if (e.ph == 'X') ++names[e.name];
  return names;
}

TEST(ObsTrace, RequiredSpanNamesPresent) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out (HJSVD_OBS=OFF)";
  const Matrix a = test_matrix(24, 16);
  {
    obs::TraceRecorder trace;
    const SvdResult r = traced_run(a, &trace, nullptr);
    const auto names = span_counts(trace);
    EXPECT_EQ(names.size(), 3u);
    EXPECT_EQ(names.at("gram"), 1u);
    EXPECT_EQ(names.at("sweep"), r.sweeps);
    EXPECT_EQ(names.at("finalize"), 1u);
  }
  // The plain engine runs the same sweep driver: one span per sweep and
  // one finalize span, inline and with its rounds on a pool.
  WorkStealingPool pool(2);
  for (WorkStealingPool* p : {static_cast<WorkStealingPool*>(nullptr), &pool}) {
    obs::TraceRecorder trace;
    HestenesConfig cfg;
    cfg.compute_u = true;
    cfg.compute_v = true;
    cfg.obs.trace = &trace;
    const SvdResult r = plain_hestenes_svd(a, cfg, nullptr, p);
    const auto names = span_counts(trace);
    EXPECT_EQ(names.size(), 2u) << (p != nullptr ? "pool" : "inline");
    EXPECT_EQ(names.at("sweep"), r.sweeps);
    EXPECT_EQ(names.at("finalize"), 1u);
  }
}

TEST(ObsTrace, SpansNestWellFormedPerTimeline) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out (HJSVD_OBS=OFF)";
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  const Matrix a = test_matrix(32, 24);
  traced_run(a, &trace, &metrics);
  arch::AcceleratorConfig sim_cfg;
  sim_cfg.obs.trace = &trace;
  arch::simulate_accelerator(a, sim_cfg);

  struct SpanRec {
    double ts, end;
    std::string name;
  };
  std::map<std::pair<int, std::uint32_t>, std::vector<SpanRec>> timelines;
  for (const auto& e : trace.snapshot()) {
    if (e.ph != 'X') continue;
    timelines[{e.pid, e.tid}].push_back({e.ts_us, e.ts_us + e.dur_us, e.name});
  }
  ASSERT_FALSE(timelines.empty());
  constexpr double kEps = 1e-6;  // double round-off at the span boundaries
  for (auto& [key, spans] : timelines) {
    std::sort(spans.begin(), spans.end(), [](const SpanRec& x, const SpanRec& y) {
      return x.ts != y.ts ? x.ts < y.ts : x.end > y.end;
    });
    std::vector<double> stack;  // open span end times
    for (const auto& sp : spans) {
      EXPECT_GE(sp.end + kEps, sp.ts) << sp.name;
      while (!stack.empty() && stack.back() <= sp.ts + kEps) stack.pop_back();
      if (!stack.empty()) {
        // Overlapping spans on one timeline must nest, not interleave.
        EXPECT_LE(sp.end, stack.back() + kEps)
            << sp.name << " interleaves on timeline pid=" << key.first
            << " tid=" << key.second;
      }
      stack.push_back(sp.end);
    }
  }
}

// --- Counter tracks (trace schema v2) --------------------------------------

TEST(ObsTrace, SimulatorEmitsFifoCounterTrack) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out (HJSVD_OBS=OFF)";
  obs::TraceRecorder trace;
  arch::AcceleratorConfig cfg;
  cfg.obs.trace = &trace;
  const auto run = arch::simulate_accelerator(test_matrix(24, 16), cfg);
  double max_seen = 0.0;
  std::size_t counters = 0;
  for (const auto& e : trace.snapshot()) {
    if (e.ph != 'C') continue;
    EXPECT_EQ(e.name, "sim.param_fifo.occupancy");
    EXPECT_EQ(e.pid, obs::kSimulatorPid);
    max_seen = std::max(max_seen, e.value);
    ++counters;
  }
  EXPECT_EQ(counters, run.rotation_groups);
  // The counter track's peak is exactly the reported FIFO high-water.
  EXPECT_EQ(max_seen, static_cast<double>(run.param_fifo_high_water));
}

TEST(ObsTrace, SimulatorEventsUseSimulatorPid) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out (HJSVD_OBS=OFF)";
  obs::TraceRecorder trace;
  arch::AcceleratorConfig cfg;
  cfg.obs.trace = &trace;
  arch::simulate_accelerator(test_matrix(24, 16), cfg);
  bool saw_sim = false;
  for (const auto& e : trace.snapshot()) {
    EXPECT_EQ(e.pid, obs::kSimulatorPid) << e.name;
    saw_sim = true;
  }
  EXPECT_TRUE(saw_sim);
}

// --- Determinism -----------------------------------------------------------

/// The documented thread-count-independent subset (docs/OBSERVABILITY.md).
const char* const kDeterministicMetrics[] = {
    "svd.rows",          "svd.cols",
    "svd.sweeps",        "svd.converged",
};

TEST(ObsDeterminism, CountersIdenticalAcrossThreadCounts) {
  const Matrix a = test_matrix(40, 28);
  std::vector<obs::MetricsRegistry> regs(3);
  const std::size_t threads[] = {1, 2, 4};
  // The plain engine runs its rounds on pools of each size.
  for (std::size_t i = 0; i < 3; ++i) {
    HestenesConfig cfg;
    cfg.obs.metrics = &regs[i];
    WorkStealingPool pool(threads[i]);
    plain_hestenes_svd(a, cfg, nullptr, &pool);
  }
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(regs[0].counter("svd.rotations_applied"),
              regs[i].counter("svd.rotations_applied"));
    EXPECT_EQ(regs[0].counter("svd.rotations_skipped"),
              regs[i].counter("svd.rotations_skipped"));
    for (const char* name : kDeterministicMetrics)
      EXPECT_EQ(regs[0].gauge(name), regs[i].gauge(name)) << name;
    // Per-sweep convergence series are bitwise equal: same rotations in
    // the same order at every thread count.
    for (const char* series : {"svd.sweep.offdiag_frobenius",
                               "svd.sweep.max_rel_offdiag",
                               "svd.sweep.rotations", "svd.sweep.skipped"}) {
      const auto base = regs[0].series(series);
      const auto other = regs[i].series(series);
      ASSERT_EQ(base.size(), other.size()) << series;
      for (std::size_t k = 0; k < base.size(); ++k) {
        EXPECT_EQ(base[k].first, other[k].first) << series;
        EXPECT_EQ(fp::to_bits(base[k].second), fp::to_bits(other[k].second))
            << series << " point " << k;
      }
    }
  }
}

TEST(ObsDeterminism, ResultsByteIdenticalWithAndWithoutSinks) {
  const Matrix a = test_matrix(32, 24);
  // The modified and pooled plain engines, plus the api front door.
  const auto expect_same = [](const SvdResult& plainr, const SvdResult& obsd) {
    ASSERT_EQ(plainr.singular_values.size(), obsd.singular_values.size());
    for (std::size_t i = 0; i < plainr.singular_values.size(); ++i)
      EXPECT_EQ(fp::to_bits(plainr.singular_values[i]),
                fp::to_bits(obsd.singular_values[i]));
    ASSERT_EQ(plainr.u.rows(), obsd.u.rows());
    ASSERT_EQ(plainr.v.rows(), obsd.v.rows());
    for (std::size_t r = 0; r < plainr.u.rows(); ++r)
      for (std::size_t c = 0; c < plainr.u.cols(); ++c)
        EXPECT_EQ(fp::to_bits(plainr.u(r, c)), fp::to_bits(obsd.u(r, c)));
    for (std::size_t r = 0; r < plainr.v.rows(); ++r)
      for (std::size_t c = 0; c < plainr.v.cols(); ++c)
        EXPECT_EQ(fp::to_bits(plainr.v(r, c)), fp::to_bits(obsd.v(r, c)));
    EXPECT_EQ(plainr.sweeps, obsd.sweeps);
    EXPECT_EQ(plainr.converged, obsd.converged);
  };

  HestenesConfig cfg;
  cfg.compute_u = true;
  cfg.compute_v = true;
  HestenesConfig with = cfg;
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  with.obs.trace = &trace;
  with.obs.metrics = &metrics;

  expect_same(modified_hestenes_svd(a, cfg), modified_hestenes_svd(a, with));
  WorkStealingPool pool(2);
  expect_same(plain_hestenes_svd(a, cfg, nullptr, &pool),
              plain_hestenes_svd(a, with, nullptr, &pool));

  SvdOptions opt;
  opt.compute_u = true;
  opt.compute_v = true;
  opt.method = SvdMethod::kPlainHestenes;
  opt.threads = 2;
  SvdOptions with_opt = opt;
  with_opt.trace = &trace;
  with_opt.metrics = &metrics;
  expect_same(svd(a, opt), svd(a, with_opt));
}

// --- Metrics registry semantics -------------------------------------------

TEST(ObsMetrics, TypedAccessorsRoundTrip) {
  obs::MetricsRegistry reg;
  reg.counter_add("c", "rotations", 3);
  reg.counter_add("c", "rotations", 4);
  reg.gauge_set("g", "s", 1.5);
  reg.gauge_set("g", "s", 2.5);
  reg.series_append("s", "1", 0.0, 10.0);
  reg.series_append("s", "1", 1.0, 20.0);
  EXPECT_EQ(reg.counter("c").value(), 7u);
  EXPECT_EQ(reg.gauge("g").value(), 2.5);
  const auto pts = reg.series("s");
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[1].second, 20.0);
  EXPECT_EQ(reg.unit("c").value(), "rotations");
  const auto names = reg.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ObsMetrics, UnitAndTypeMismatchThrows) {
  obs::MetricsRegistry reg;
  reg.counter_add("x", "rotations", 1);
  EXPECT_THROW(reg.counter_add("x", "groups", 1), Error);
  EXPECT_THROW(reg.gauge_set("x", "rotations", 1.0), Error);
}

// --- Convergence-series unification ---------------------------------------

TEST(ObsMetrics, AllEnginesRecordSameConvergenceSeries) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out (HJSVD_OBS=OFF)";
  const Matrix a = test_matrix(24, 16);
  // The plain engine gives the same bits inline and on a pool; every engine
  // must at least record the same series names with one point per sweep.
  HestenesConfig cfg;
  obs::MetricsRegistry seq, plain, par_plain;
  {
    HestenesConfig c = cfg;
    c.obs.metrics = &seq;
    modified_hestenes_svd(a, c);
  }
  {
    HestenesConfig c = cfg;
    c.obs.metrics = &plain;
    plain_hestenes_svd(a, c);
  }
  {
    HestenesConfig c = cfg;
    c.obs.metrics = &par_plain;
    WorkStealingPool pool(2);
    plain_hestenes_svd(a, c, nullptr, &pool);
  }
  const obs::MetricsRegistry* regs[] = {&seq, &plain, &par_plain};
  for (const auto* reg : regs) {
    for (const char* series : {"svd.sweep.offdiag_frobenius",
                               "svd.sweep.max_rel_offdiag",
                               "svd.sweep.rotations", "svd.sweep.skipped"}) {
      const auto pts = reg->series(series);
      ASSERT_FALSE(pts.empty()) << series;
      EXPECT_EQ(pts.size(), static_cast<std::size_t>(
                                reg->gauge("svd.sweeps").value()))
          << series;
    }
    EXPECT_TRUE(reg->counter("svd.rotations_applied").has_value());
    EXPECT_EQ(reg->gauge("svd.rows").value(), 24.0);
    EXPECT_EQ(reg->gauge("svd.cols").value(), 16.0);
  }
  // The bitwise-identical pair agrees point-for-point on the trajectory.
  const auto base = plain.series("svd.sweep.offdiag_frobenius");
  {
    const auto other = par_plain.series("svd.sweep.offdiag_frobenius");
    ASSERT_EQ(base.size(), other.size());
    for (std::size_t k = 0; k < base.size(); ++k)
      EXPECT_EQ(fp::to_bits(base[k].second), fp::to_bits(other[k].second));
  }
}

// --- Overhead guardrail predicate -----------------------------------------

TEST(ObsGuardrail, SymmetricInBothDirections) {
  // The historical bug: disabled 1.00s vs enabled 1.06s passed the old
  // one-sided check.  The symmetric predicate rejects a >5% gap regardless
  // of which side is slower.
  EXPECT_FALSE(obs::overhead_within(1.06, 1.00, 0.05));
  EXPECT_FALSE(obs::overhead_within(1.00, 1.06, 0.05));
  EXPECT_TRUE(obs::overhead_within(1.04, 1.00, 0.05));
  EXPECT_TRUE(obs::overhead_within(1.00, 1.04, 0.05));
  EXPECT_TRUE(obs::overhead_within(2.0, 2.0, 0.0));
}

TEST(ObsGuardrail, DegenerateTimingsFail) {
  EXPECT_FALSE(obs::overhead_within(0.0, 1.0, 0.05));
  EXPECT_FALSE(obs::overhead_within(1.0, -1.0, 0.05));
  EXPECT_FALSE(obs::overhead_within(1.0, 1.0, -0.1));
}

TEST(ObsGuardrail, OverheadFracIsSigned) {
  EXPECT_NEAR(obs::overhead_frac(1.1, 1.0), 0.1, 1e-12);
  EXPECT_NEAR(obs::overhead_frac(0.9, 1.0), -0.1, 1e-12);
  EXPECT_EQ(obs::overhead_frac(1.0, 0.0), 0.0);
}

// --- Run manifest ----------------------------------------------------------

TEST(ObsManifest, CarriesProvenanceAndSchemaVersions) {
  obs::RunManifest manifest;
  manifest.tool = "test_obs";
  manifest.config = "n=32 \"quoted\"";
  const std::string json = obs::manifest_json(manifest);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"tool\": \"test_obs\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\": \""), std::string::npos);
  EXPECT_NE(json.find("\"trace\": \"hjsvd.trace.v2\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\": \"hjsvd.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"report\": \"hjsvd.report.v2\""), std::string::npos);
  EXPECT_GE(obs::host_hardware_threads(), 1);
  EXPECT_STRNE(obs::build_git_sha(), "");
}

TEST(ObsMetrics, BatchLevelMetricsFromSvdBatch) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out (HJSVD_OBS=OFF)";
  std::vector<Matrix> batch;
  for (std::uint64_t s = 0; s < 4; ++s) batch.push_back(test_matrix(12, 8, s));
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  SvdOptions opt;
  opt.trace = &trace;
  opt.metrics = &metrics;
  const auto results = svd_batch(batch, opt, 2);
  EXPECT_EQ(results.size(), 4u);
  EXPECT_EQ(metrics.counter("batch.items").value(), 4u);
  // Per-item sinks are stripped: no engine-level metric may leak through.
  EXPECT_FALSE(metrics.counter("svd.rotations_applied").has_value());
  bool saw_batch_span = false;
  for (const auto& e : trace.snapshot())
    if (e.name == "svd_batch" || e.name == "item") saw_batch_span = true;
  EXPECT_TRUE(saw_batch_span);
}

}  // namespace
}  // namespace hjsvd
