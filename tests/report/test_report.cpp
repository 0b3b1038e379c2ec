// Report subsystem tests: the JSON reader, analyze_run on fixed fixtures, a
// byte-exact golden-file check of the serialized hjsvd.report.v2 document,
// the serialize/parse round trip, and the compare gate's regression logic.
#include "report/json.hpp"
#include "report/report.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"

namespace hjsvd::report {
namespace {

std::string data_path(const std::string& name) {
  return std::string(HJSVD_TEST_DATA_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

RunReport fixture_report() {
  return analyze_run(parse_json_file(data_path("fixture_trace.json")),
                     parse_json_file(data_path("fixture_metrics.json")));
}

// --- JSON reader -----------------------------------------------------------

TEST(ReportJson, ParsesScalarsArraysObjects) {
  const JsonValue v = parse_json(
      R"({"a": 1.5, "b": [1, 2, 3], "c": {"d": "x\ny"}, "e": true, "f": null})");
  EXPECT_EQ(v.at("a").as_number(), 1.5);
  EXPECT_EQ(v.at("b").as_array().size(), 3u);
  EXPECT_EQ(v.at("c").at("d").as_string(), "x\ny");
  EXPECT_TRUE(v.at("e").as_bool());
  EXPECT_TRUE(v.at("f").is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(v.number_or("missing", 7.0), 7.0);
}

TEST(ReportJson, ParsesEscapesAndUnicode) {
  const JsonValue v = parse_json(R"(["\"\\\/\b\f\n\r\t", "Aé", "\u00e9"])");
  EXPECT_EQ(v.as_array()[0].as_string(), "\"\\/\b\f\n\r\t");
  EXPECT_EQ(v.as_array()[1].as_string(), "A\xc3\xa9");
  EXPECT_EQ(v.as_array()[2].as_string(), "\xc3\xa9");
}

TEST(ReportJson, CombinesSurrogatePairsToUtf8) {
  // U+1F600 arrives as a UTF-16 surrogate pair and must decode to one
  // 4-byte UTF-8 sequence, not two invalid 3-byte ones.
  const JsonValue v = parse_json("[\"\\ud83d\\ude00\"]");
  EXPECT_EQ(v.as_array()[0].as_string(), "\xf0\x9f\x98\x80");
}

TEST(ReportJson, RejectsLoneSurrogates) {
  EXPECT_THROW(parse_json(R"(["\ud83d"])"), Error);        // high at end
  EXPECT_THROW(parse_json(R"(["\ud83d!"])"), Error);       // high, no \u
  EXPECT_THROW(parse_json(R"(["\ud83dA"])"), Error);  // high + non-low
  EXPECT_THROW(parse_json(R"(["\ude00"])"), Error);        // lone low
}

TEST(ReportJson, ParsesScientificNumbers) {
  const JsonValue v = parse_json("[1e3, -2.5E-2, 0.125]");
  EXPECT_EQ(v.as_array()[0].as_number(), 1000.0);
  EXPECT_EQ(v.as_array()[1].as_number(), -0.025);
  EXPECT_EQ(v.as_array()[2].as_number(), 0.125);
}

TEST(ReportJson, RejectsMalformedDocuments) {
  EXPECT_THROW(parse_json("{"), Error);
  EXPECT_THROW(parse_json("{\"a\": }"), Error);
  EXPECT_THROW(parse_json("[1, 2,]"), Error);
  EXPECT_THROW(parse_json("tru"), Error);
  EXPECT_THROW(parse_json("\"unterminated"), Error);
  EXPECT_THROW(parse_json("{} trailing"), Error);
  EXPECT_THROW(parse_json("1.2.3"), Error);
}

TEST(ReportJson, ErrorsCarryLineAndColumn) {
  try {
    parse_json("{\n  \"a\": oops\n}");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("2:8"), std::string::npos)
        << e.what();
  }
}

TEST(ReportJson, TypeMismatchThrows) {
  const JsonValue v = parse_json(R"({"a": 1})");
  EXPECT_THROW(v.at("a").as_string(), Error);
  EXPECT_THROW(v.at("b"), Error);
  EXPECT_THROW(v.as_array(), Error);
}

// --- analyze_run on the fixtures ------------------------------------------

TEST(ReportAnalyze, RunSummaryFromMetrics) {
  const RunReport r = fixture_report();
  EXPECT_EQ(r.rows, 64u);
  EXPECT_EQ(r.cols, 32u);
  EXPECT_EQ(r.sweeps, 2u);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.rotations_applied, 992u);
  EXPECT_EQ(r.wall_s, 2.0);
}

TEST(ReportAnalyze, PhasesAggregateSoftwareSpansByName) {
  const RunReport r = fixture_report();
  ASSERT_FALSE(r.phases.empty());
  // Sorted by descending total; the two 0.9s sweeps dominate at 1.8s.
  EXPECT_EQ(r.phases.front().name, "update");
  EXPECT_EQ(r.phases.front().total_s, 2.2);
  EXPECT_EQ(r.phases.front().count, 2u);
  bool saw_sweep = false, saw_sim = false;
  for (const PhaseStat& p : r.phases) {
    if (p.name == "sweep") {
      saw_sweep = true;
      EXPECT_DOUBLE_EQ(p.total_s, 1.8);
      EXPECT_DOUBLE_EQ(p.frac_of_wall, 0.9);
    }
    if (p.name == "update-group") saw_sim = true;  // pid 2: must be excluded
  }
  EXPECT_TRUE(saw_sweep);
  EXPECT_FALSE(saw_sim);
}

TEST(ReportAnalyze, SimSectionAndCrossChecks) {
  const RunReport r = fixture_report();
  ASSERT_TRUE(r.has_sim);
  EXPECT_EQ(r.sim_fifo_depth_groups, 4.0);
  EXPECT_EQ(r.sim_fifo_high_water_rotations, 32.0);
  EXPECT_EQ(r.sim_fifo_occupancy.samples, 3u);
  EXPECT_EQ(r.sim_update_utilization, 0.4);
  // The run summary comes from the software spans alone: their extent is
  // the wall clock whether or not a sim section is present.
  EXPECT_EQ(r.wall_s, 2.0);
}

TEST(ReportAnalyze, ConvergenceTrajectoryUnified) {
  const RunReport r = fixture_report();
  ASSERT_EQ(r.convergence.size(), 2u);
  EXPECT_EQ(r.convergence[0].sweep, 0u);
  EXPECT_EQ(r.convergence[0].offdiag_frobenius, 128.5);
  EXPECT_EQ(r.convergence[1].max_rel_offdiag, 0.0005);
  EXPECT_EQ(r.convergence[1].rotations, 496u);
}

TEST(ReportAnalyze, AcceptsTraceV1) {
  // v2 = v1 + counter events; a v1 document (no 'C' events) must load.
  std::string v1 = slurp(data_path("fixture_trace.json"));
  const auto tag = v1.find("hjsvd.trace.v2");
  ASSERT_NE(tag, std::string::npos);
  v1.replace(tag, 14, "hjsvd.trace.v1");
  const RunReport r = analyze_run(
      parse_json(v1), parse_json_file(data_path("fixture_metrics.json")));
  EXPECT_EQ(r.rows, 64u);
}

TEST(ReportAnalyze, WrongSchemaIsSchemaError) {
  const JsonValue trace = parse_json_file(data_path("fixture_trace.json"));
  const JsonValue metrics = parse_json_file(data_path("fixture_metrics.json"));
  EXPECT_THROW(analyze_run(metrics, metrics), SchemaError);  // swapped
  EXPECT_THROW(analyze_run(trace, trace), SchemaError);
  EXPECT_THROW(analyze_run(parse_json("{}"), metrics), SchemaError);
  EXPECT_THROW(
      analyze_run(parse_json(R"({"schema": "hjsvd.trace.v99"})"), metrics),
      SchemaError);
  // v3 is a supported schema, but the tagged shape must still be present.
  EXPECT_THROW(
      analyze_run(parse_json(R"({"schema": "hjsvd.trace.v3"})"), metrics),
      SchemaError);
  EXPECT_THROW(report_from_json(parse_json("{}")), SchemaError);
}

// --- Batch-scheduler section ----------------------------------------------

// A metrics document as svd_batch records it: the pool summary, per-worker
// busy/idle gauges, and the queue-occupancy drain series.
const char* kBatchMetrics = R"({
"schema": "hjsvd.metrics.v1",
"metrics": [
  {"name": "batch.items", "unit": "matrices", "type": "counter", "value": 7},
  {"name": "batch.items_ok", "unit": "matrices", "type": "counter", "value": 6},
  {"name": "batch.items_failed", "unit": "matrices", "type": "counter", "value": 1},
  {"name": "batch.workers", "unit": "threads", "type": "gauge", "value": 2},
  {"name": "batch.workers.requested", "unit": "threads", "type": "gauge", "value": 4},
  {"name": "batch.wall_s", "unit": "s", "type": "gauge", "value": 2},
  {"name": "batch.steals", "unit": "tasks", "type": "counter", "value": 3},
  {"name": "batch.worker.0.busy_s", "unit": "s", "type": "gauge", "value": 1.5},
  {"name": "batch.worker.0.idle_s", "unit": "s", "type": "gauge", "value": 0.5},
  {"name": "batch.worker.1.busy_s", "unit": "s", "type": "gauge", "value": 1},
  {"name": "batch.worker.1.idle_s", "unit": "s", "type": "gauge", "value": 1},
  {"name": "batch.queue.occupancy", "unit": "tasks", "type": "series",
   "points": [[0, 6], [1, 5], [2, 4], [3, 3], [4, 2], [5, 1], [6, 0]]}
]
})";

RunReport batch_report() {
  return analyze_run(
      parse_json(R"({"schema": "hjsvd.trace.v1", "traceEvents": []})"),
      parse_json(kBatchMetrics));
}

TEST(ReportBatch, AnalyzeFillsBatchSectionFromMetrics) {
  const RunReport r = batch_report();
  ASSERT_TRUE(r.has_batch);
  EXPECT_EQ(r.batch_items, 7u);
  EXPECT_EQ(r.batch_items_ok, 6u);
  EXPECT_EQ(r.batch_items_failed, 1u);
  EXPECT_EQ(r.batch_workers, 2u);
  EXPECT_EQ(r.batch_workers_requested, 4u);
  EXPECT_EQ(r.batch_steals, 3u);
  EXPECT_EQ(r.batch_wall_s, 2.0);
  // (0.5 + 1.0) idle over 2 workers * 2s wall.
  EXPECT_DOUBLE_EQ(r.batch_idle_frac, 0.375);
  ASSERT_EQ(r.batch_worker_stats.size(), 2u);
  EXPECT_EQ(r.batch_worker_stats[0].name, "worker.0");
  EXPECT_EQ(r.batch_worker_stats[0].busy_s, 1.5);
  EXPECT_EQ(r.batch_worker_stats[1].idle_s, 1.0);
  EXPECT_EQ(r.batch_queue_occupancy.samples, 7u);
  EXPECT_EQ(r.batch_queue_occupancy.mean, 3.0);
  EXPECT_EQ(r.batch_queue_occupancy.max, 6.0);
}

TEST(ReportBatch, BatchSectionRoundTrips) {
  const RunReport a = batch_report();
  const std::string json = report_json(a);
  EXPECT_NE(json.find("\"batch\""), std::string::npos);
  const RunReport b = report_from_json(parse_json(json));
  ASSERT_TRUE(b.has_batch);
  EXPECT_EQ(b.batch_steals, 3u);
  EXPECT_EQ(b.batch_workers_requested, 4u);
  ASSERT_EQ(b.batch_worker_stats.size(), 2u);
  EXPECT_EQ(b.batch_worker_stats[1].busy_s, 1.0);
  EXPECT_EQ(report_json(a), report_json(b));
}

TEST(ReportBatch, AbsentBatchOmitsTheMemberEntirely) {
  // Unlike sim there is no "batch": null — reports from before
  // the batch scheduler must keep serializing byte-for-byte (the golden
  // file below enforces the same thing).
  const std::string json = report_json(fixture_report());
  EXPECT_EQ(json.find("\"batch\""), std::string::npos);
}

TEST(ReportBatch, TableRendersSchedulerBehaviour) {
  const std::string table = report_table(batch_report());
  EXPECT_NE(table.find("3 steals"), std::string::npos);
  EXPECT_NE(table.find("Batch-scheduler pool workers"), std::string::npos);
  EXPECT_NE(table.find("2 workers (4 requested)"), std::string::npos);
}

// --- Retired sections -----------------------------------------------------

TEST(ReportCompat, RetiredMixedMemberIsIgnoredOnLoad) {
  // Reports written while the mixed-precision engine existed carry a
  // "mixed" member.  The parser reads members by name, so such a report
  // still loads, and re-serializing it drops the member.
  const std::string json = report_json(fixture_report());
  std::string old = json;
  old.insert(old.find('{') + 1,
             "\"mixed\": {\"float_sweeps\": 5, \"switch_reason\": "
             "\"threshold\"},\n");
  EXPECT_EQ(report_json(report_from_json(parse_json(old))), json);
}

// --- Live-telemetry section -----------------------------------------------

// A flight-recorder trace dump (hjsvd.trace.v3) as TraceRecorder writes it
// in ring mode: v2 plus ring/drop metadata in otherData.
const char* kLiveTrace = R"({
"schema": "hjsvd.trace.v3",
"otherData": {"time_unit": "us", "software_pid": 1, "simulator_pid": 2,
  "flight_recorder": true, "ring_capacity_events": 4096,
  "dropped_events_total": 1150, "dropped_events_by_tid": [386, 383, 381]},
"traceEvents": []
})";

// Watchdog verdicts as obs::Watchdog publishes them (obs.watchdog.* plus
// the exporter's obs.dump.count).
const char* kLiveMetrics = R"({
"schema": "hjsvd.metrics.v1",
"metrics": [
  {"name": "obs.dump.count", "unit": "dumps", "type": "counter", "value": 2},
  {"name": "obs.watchdog.deadline_exceeded", "unit": "bool", "type": "gauge", "value": 0},
  {"name": "obs.watchdog.deadline_overruns", "unit": "events", "type": "counter", "value": 0},
  {"name": "obs.watchdog.deadline_s", "unit": "s", "type": "gauge", "value": 30},
  {"name": "obs.watchdog.stall_events", "unit": "events", "type": "counter", "value": 1},
  {"name": "obs.watchdog.stall_sweeps", "unit": "sweeps", "type": "gauge", "value": 3},
  {"name": "obs.watchdog.stalled", "unit": "bool", "type": "gauge", "value": 1},
  {"name": "obs.watchdog.sweeps_observed", "unit": "sweeps", "type": "counter", "value": 12}
]
})";

RunReport live_report() {
  return analyze_run(parse_json(kLiveTrace), parse_json(kLiveMetrics));
}

TEST(ReportLive, AnalyzeFillsLiveSectionFromV3TraceAndWatchdogMetrics) {
  const RunReport r = live_report();
  ASSERT_TRUE(r.has_live);
  EXPECT_TRUE(r.live_ring_enabled);
  EXPECT_EQ(r.live_ring_capacity_events, 4096u);
  EXPECT_EQ(r.live_dropped_events_total, 1150u);
  ASSERT_TRUE(r.live_watchdog_present);
  EXPECT_TRUE(r.live_watchdog_stalled);
  EXPECT_FALSE(r.live_watchdog_deadline_exceeded);
  EXPECT_EQ(r.live_watchdog_deadline_s, 30.0);
  EXPECT_EQ(r.live_watchdog_stall_sweeps, 3u);
  EXPECT_EQ(r.live_watchdog_stall_events, 1u);
  EXPECT_EQ(r.live_watchdog_sweeps_observed, 12u);
  EXPECT_EQ(r.live_watchdog_deadline_overruns, 0u);
  EXPECT_EQ(r.live_dumps, 2u);
}

TEST(ReportLive, WatchdogMetricsAloneTriggerTheSection) {
  // A watchdog run with an unbounded (v2) trace still gets a live section;
  // the ring fields stay at their absent defaults.
  const RunReport r = analyze_run(
      parse_json(R"({"schema": "hjsvd.trace.v2", "traceEvents": []})"),
      parse_json(kLiveMetrics));
  ASSERT_TRUE(r.has_live);
  EXPECT_FALSE(r.live_ring_enabled);
  EXPECT_EQ(r.live_ring_capacity_events, 0u);
  EXPECT_TRUE(r.live_watchdog_stalled);
}

TEST(ReportLive, LiveSectionRoundTrips) {
  const RunReport a = live_report();
  const std::string json = report_json(a);
  EXPECT_NE(json.find("\"live\""), std::string::npos);
  const RunReport b = report_from_json(parse_json(json));
  ASSERT_TRUE(b.has_live);
  EXPECT_TRUE(b.live_ring_enabled);
  EXPECT_EQ(b.live_ring_capacity_events, 4096u);
  EXPECT_EQ(b.live_dropped_events_total, 1150u);
  EXPECT_TRUE(b.live_watchdog_stalled);
  EXPECT_EQ(b.live_watchdog_deadline_s, 30.0);
  EXPECT_EQ(b.live_dumps, 2u);
  EXPECT_EQ(report_json(a), report_json(b));
}

TEST(ReportLive, AbsentLiveOmitsTheMemberEntirely) {
  // Same contract as batch/mixed: no "live": null, so reports from before
  // live telemetry keep serializing byte-for-byte (golden file enforces).
  const std::string json = report_json(fixture_report());
  EXPECT_EQ(json.find("\"live\""), std::string::npos);
}

TEST(ReportLive, TableRendersRingAndWatchdogVerdicts) {
  const std::string table = report_table(live_report());
  EXPECT_NE(table.find("flight-recorder ring, capacity 4096"),
            std::string::npos);
  EXPECT_NE(table.find("1150 dropped"), std::string::npos);
  EXPECT_NE(table.find("watchdog STALLED"), std::string::npos);
  EXPECT_NE(table.find("2 mid-run dump(s)"), std::string::npos);
}

TEST(ReportLive, CompareTreatsVerdictsAndDropsAsInvariants) {
  RunReport baseline = live_report();
  baseline.live_watchdog_stalled = false;
  baseline.live_dropped_events_total = 0;

  // Candidate identical to baseline: all live checks pass.
  {
    const CompareResult r =
        compare_reports(baseline, baseline, CompareThresholds{});
    EXPECT_FALSE(r.regressed);
  }
  // Candidate newly stalls: regression regardless of timings.
  {
    RunReport cand = baseline;
    cand.live_watchdog_stalled = true;
    const CompareResult r =
        compare_reports(baseline, cand, CompareThresholds{});
    EXPECT_TRUE(r.regressed);
  }
  // Candidate newly exceeds the deadline: regression.
  {
    RunReport cand = baseline;
    cand.live_watchdog_deadline_exceeded = true;
    const CompareResult r =
        compare_reports(baseline, cand, CompareThresholds{});
    EXPECT_TRUE(r.regressed);
  }
  // Candidate starts dropping ring events when the baseline dropped none.
  {
    RunReport cand = baseline;
    cand.live_dropped_events_total = 42;
    const CompareResult r =
        compare_reports(baseline, cand, CompareThresholds{});
    EXPECT_TRUE(r.regressed);
  }
  // Both drop (undersized ring in both runs): counts are noisy, not gated.
  {
    RunReport base2 = baseline;
    base2.live_dropped_events_total = 10;
    RunReport cand = base2;
    cand.live_dropped_events_total = 500;
    const CompareResult r = compare_reports(base2, cand, CompareThresholds{});
    EXPECT_FALSE(r.regressed);
  }
  // A stalled baseline does not fail a still-stalled candidate.
  {
    RunReport base2 = baseline;
    base2.live_watchdog_stalled = true;
    RunReport cand = base2;
    const CompareResult r = compare_reports(base2, cand, CompareThresholds{});
    EXPECT_FALSE(r.regressed);
  }
}

// --- Serving section ------------------------------------------------------

// A metrics document as hjsvd_serve records it: admission-control counters,
// wave/latency statistics, the queue-depth series, and the warm-workspace
// shutdown counters.
const char* kServeMetrics = R"({
"schema": "hjsvd.metrics.v1",
"metrics": [
  {"name": "serve.requests_total", "unit": "requests", "type": "counter", "value": 10},
  {"name": "serve.admitted_total", "unit": "requests", "type": "counter", "value": 7},
  {"name": "serve.rejected.overload", "unit": "requests", "type": "counter", "value": 2},
  {"name": "serve.rejected.bad_request", "unit": "requests", "type": "counter", "value": 1},
  {"name": "serve.expired.deadline", "unit": "requests", "type": "counter", "value": 1},
  {"name": "serve.replies_ok", "unit": "requests", "type": "counter", "value": 6},
  {"name": "serve.replies_error", "unit": "requests", "type": "counter", "value": 4},
  {"name": "serve.waves_total", "unit": "waves", "type": "counter", "value": 3},
  {"name": "serve.workspace.reuse_total", "unit": "buffers", "type": "counter", "value": 12},
  {"name": "serve.workspace.alloc_total", "unit": "buffers", "type": "counter", "value": 4},
  {"name": "serve.latency_p50_ms", "unit": "ms", "type": "gauge", "value": 1.25},
  {"name": "serve.latency_p95_ms", "unit": "ms", "type": "gauge", "value": 4.5},
  {"name": "serve.queue.depth", "unit": "requests", "type": "series",
   "points": [[0, 1], [1, 2], [2, 3], [3, 2]]}
]
})";

RunReport serve_report() {
  return analyze_run(
      parse_json(R"({"schema": "hjsvd.trace.v1", "traceEvents": []})"),
      parse_json(kServeMetrics));
}

TEST(ReportServe, AnalyzeFillsServeSectionFromMetrics) {
  const RunReport r = serve_report();
  ASSERT_TRUE(r.has_serve);
  EXPECT_EQ(r.serve_requests_total, 10u);
  EXPECT_EQ(r.serve_admitted_total, 7u);
  EXPECT_EQ(r.serve_rejected_overload, 2u);
  EXPECT_EQ(r.serve_rejected_bad_request, 1u);
  EXPECT_EQ(r.serve_expired_deadline, 1u);
  EXPECT_EQ(r.serve_replies_ok, 6u);
  EXPECT_EQ(r.serve_replies_error, 4u);
  EXPECT_EQ(r.serve_waves_total, 3u);
  EXPECT_EQ(r.serve_workspace_reuse_total, 12u);
  EXPECT_EQ(r.serve_workspace_alloc_total, 4u);
  EXPECT_DOUBLE_EQ(r.serve_latency_p50_ms, 1.25);
  EXPECT_DOUBLE_EQ(r.serve_latency_p95_ms, 4.5);
  EXPECT_EQ(r.serve_queue_depth.samples, 4u);
  EXPECT_DOUBLE_EQ(r.serve_queue_depth.mean, 2.0);
  EXPECT_DOUBLE_EQ(r.serve_queue_depth.max, 3.0);
}

TEST(ReportServe, ServeSectionRoundTrips) {
  const RunReport a = serve_report();
  const std::string json = report_json(a);
  EXPECT_NE(json.find("\"serve\""), std::string::npos);
  const RunReport b = report_from_json(parse_json(json));
  ASSERT_TRUE(b.has_serve);
  EXPECT_EQ(b.serve_requests_total, 10u);
  EXPECT_EQ(b.serve_workspace_reuse_total, 12u);
  EXPECT_DOUBLE_EQ(b.serve_latency_p95_ms, 4.5);
  EXPECT_EQ(b.serve_queue_depth.samples, 4u);
  EXPECT_EQ(report_json(a), report_json(b));
}

TEST(ReportServe, AbsentServeOmitsTheMemberEntirely) {
  // Offline-run reports must keep serializing byte-for-byte (the golden
  // file below enforces the same thing).
  const std::string json = report_json(fixture_report());
  EXPECT_EQ(json.find("\"serve\""), std::string::npos);
}

TEST(ReportServe, TableRendersAdmissionAndWarmPoolStory) {
  const std::string table = report_table(serve_report());
  EXPECT_NE(table.find("10 requests"), std::string::npos);
  EXPECT_NE(table.find("7 admitted / 2 overload / 1 bad"), std::string::npos);
  EXPECT_NE(table.find("1 deadline-expired"), std::string::npos);
  EXPECT_NE(table.find("12 reuses / 4 allocs"), std::string::npos);
  EXPECT_NE(table.find("queue depth mean 2.00"), std::string::npos);
}

// --- Golden file and round trip -------------------------------------------

TEST(ReportGolden, SerializationMatchesGoldenByteForByte) {
  const std::string got = report_json(fixture_report());
  const std::string want = slurp(data_path("golden_report.json"));
  EXPECT_EQ(got, want)
      << "hjsvd.report.v2 serialization changed; if intentional, regenerate "
         "tests/report/data/golden_report.json with hjsvd_report and bump "
         "the schema notes in docs/OBSERVABILITY.md";
}

TEST(ReportGolden, RoundTripPreservesEverythingComparable) {
  const RunReport a = fixture_report();
  const RunReport b = report_from_json(parse_json(report_json(a)));
  // Serialize-parse-serialize is a fixed point.
  EXPECT_EQ(report_json(a), report_json(b));
  const CompareResult same = compare_reports(a, b, {});
  EXPECT_FALSE(same.regressed);
}

TEST(ReportTable, HumanViewNamesTheConclusions) {
  const std::string table = report_table(fixture_report());
  EXPECT_NE(table.find("Per-phase wall-clock breakdown"), std::string::npos);
  EXPECT_NE(table.find("Convergence trajectory"), std::string::npos);
  EXPECT_NE(table.find("param-FIFO"), std::string::npos);
}

// --- Compare gate ----------------------------------------------------------

TEST(ReportCompare, FlagsWallClockRegression) {
  const RunReport base = fixture_report();
  RunReport slow = base;
  slow.wall_s = base.wall_s * 1.2;
  const CompareResult r = compare_reports(base, slow, {});
  EXPECT_TRUE(r.regressed);
  bool named = false;
  for (const auto& f : r.findings)
    if (f.find("FAIL wall_s") != std::string::npos) named = true;
  EXPECT_TRUE(named);
  // Within threshold: 5% slower passes the default 10% gate.
  RunReport ok = base;
  ok.wall_s = base.wall_s * 1.05;
  EXPECT_FALSE(compare_reports(base, ok, {}).regressed);
}

TEST(ReportCompare, FlagsConvergenceRegressions) {
  const RunReport base = fixture_report();
  RunReport worse = base;
  worse.sweeps = base.sweeps + 1;
  EXPECT_TRUE(compare_reports(base, worse, {}).regressed);
  CompareThresholds lax;
  lax.max_sweep_increase = 1;
  EXPECT_FALSE(compare_reports(base, worse, lax).regressed);

  RunReport diverged = base;
  diverged.converged = false;
  EXPECT_TRUE(compare_reports(base, diverged, {}).regressed);

  RunReport busier = base;
  busier.rotations_applied =
      static_cast<std::uint64_t>(base.rotations_applied * 1.2);
  EXPECT_TRUE(compare_reports(base, busier, {}).regressed);
}

TEST(ReportCompare, WorkloadMismatchRefusesComparison) {
  const RunReport base = fixture_report();
  RunReport other = base;
  other.cols = base.cols * 2;
  const CompareResult r = compare_reports(base, other, {});
  EXPECT_TRUE(r.regressed);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_NE(r.findings[0].find("not comparable"), std::string::npos);
}

}  // namespace
}  // namespace hjsvd::report
