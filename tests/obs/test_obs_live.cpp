// Live-telemetry tests: flight-recorder ring semantics (drop-oldest order,
// exact drop counters, bounded memory), hjsvd.trace.v3 serialization,
// dump-concurrent-with-emission safety, the convergence/deadline watchdog,
// the SnapshotExporter's JSONL + Prometheus output, programmatic dump
// requests, and byte-identical SVD results with live telemetry attached.
#include "obs/live.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/svd.hpp"
#include "common/rng.hpp"
#include "linalg/generate.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "report/json.hpp"
#include "report/report.hpp"
#include "svd/obs_hooks.hpp"

namespace hjsvd::obs {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on scope exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("hjsvd_live_" + name + "_" +
               std::to_string(static_cast<std::uint64_t>(
                   std::chrono::steady_clock::now().time_since_epoch()
                       .count())))) {
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

// --- Flight-recorder ring --------------------------------------------------

TEST(TraceRing, UnboundedRecorderKeepsV2Contract) {
  TraceRecorder rec;
  EXPECT_FALSE(rec.flight_recorder());
  EXPECT_EQ(rec.ring_capacity(), 0u);
  const auto tid = rec.register_thread("main");
  for (int i = 0; i < 100; ++i)
    rec.emit_instant(tid, "t", std::string("e").append(std::to_string(i)),
                     rec.now_us());
  EXPECT_EQ(rec.buffered_events(tid), 100u);
  EXPECT_EQ(rec.dropped_events_total(), 0u);
  const report::JsonValue doc = report::parse_json(rec.to_json());
  EXPECT_EQ(doc.string_or("schema"), kTraceSchema);
  // v2 documents must not leak ring metadata.
  EXPECT_EQ(doc.at("otherData").find("flight_recorder"), nullptr);
}

TEST(TraceRing, DropsOldestWithExactCounters) {
  TraceRecorder rec(/*ring_capacity_events=*/4);
  EXPECT_TRUE(rec.flight_recorder());
  const auto tid = rec.register_thread("main");
  for (int i = 0; i < 10; ++i) {
    rec.emit_instant(tid, "t", std::string("e").append(std::to_string(i)),
                     rec.now_us());
    EXPECT_LE(rec.buffered_events(tid), 4u);  // cap is never exceeded
  }
  EXPECT_EQ(rec.buffered_events(tid), 4u);
  EXPECT_EQ(rec.dropped_events(tid), 6u);
  EXPECT_EQ(rec.dropped_events_total(), 6u);
  // Drop-oldest is deterministic: exactly the newest 4 events survive, in
  // emission order.
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "e6");
  EXPECT_EQ(events[1].name, "e7");
  EXPECT_EQ(events[2].name, "e8");
  EXPECT_EQ(events[3].name, "e9");
}

TEST(TraceRing, PerThreadRingsAndDropCountersAreIndependent) {
  TraceRecorder rec(/*ring_capacity_events=*/3);
  const auto t0 = rec.register_thread("a");
  const auto t1 = rec.register_thread("b");
  for (int i = 0; i < 8; ++i) rec.emit_instant(t0, "t", "x", rec.now_us());
  for (int i = 0; i < 2; ++i) rec.emit_instant(t1, "t", "y", rec.now_us());
  EXPECT_EQ(rec.dropped_events(t0), 5u);
  EXPECT_EQ(rec.dropped_events(t1), 0u);
  EXPECT_EQ(rec.buffered_events(t0), 3u);
  EXPECT_EQ(rec.buffered_events(t1), 2u);
  EXPECT_EQ(rec.dropped_events_total(), 5u);
}

TEST(TraceRing, SerializesV3WithRingMetadata) {
  TraceRecorder rec(/*ring_capacity_events=*/2);
  const auto t0 = rec.register_thread("a");
  const auto t1 = rec.register_thread("b");
  for (int i = 0; i < 5; ++i) rec.emit_instant(t0, "t", "x", rec.now_us());
  rec.emit_instant(t1, "t", "y", rec.now_us());
  const report::JsonValue doc = report::parse_json(rec.to_json());
  EXPECT_EQ(doc.string_or("schema"), kTraceSchemaV3);
  const report::JsonValue& other = doc.at("otherData");
  EXPECT_TRUE(other.at("flight_recorder").as_bool());
  EXPECT_EQ(other.number_or("ring_capacity_events", -1.0), 2.0);
  EXPECT_EQ(other.number_or("dropped_events_total", -1.0), 3.0);
  const auto& by_tid = other.at("dropped_events_by_tid").as_array();
  ASSERT_EQ(by_tid.size(), 2u);
  EXPECT_EQ(by_tid[0].as_number(), 3.0);
  EXPECT_EQ(by_tid[1].as_number(), 0.0);
  // The ring holds the 2 newest events of t0 plus t1's single event.
  EXPECT_EQ(doc.at("traceEvents").as_array().size(),
            3u + 2u /* thread_name metadata */ + 2u /* process_name */);
}

TEST(TraceRing, DumpConcurrentWithEmissionYieldsValidJson) {
  TraceRecorder rec(/*ring_capacity_events=*/64);
  const auto tid = rec.register_thread("emitter");
  std::atomic<bool> stop{false};
  std::thread emitter([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      rec.emit_instant(tid, "t", std::string("e").append(std::to_string(i++)),
                       rec.now_us());
      rec.emit_counter(tid, "t", "occ", rec.now_us(),
                       static_cast<double>(i % 7));
    }
  });
  // Every mid-emission dump must parse as a complete, well-formed document
  // with consistent ring metadata.
  for (int round = 0; round < 50; ++round) {
    const report::JsonValue doc = report::parse_json(rec.to_json());
    EXPECT_EQ(doc.string_or("schema"), kTraceSchemaV3);
    const auto& by_tid = doc.at("otherData").at("dropped_events_by_tid")
                             .as_array();
    double sum = 0.0;
    for (const auto& d : by_tid) sum += d.as_number();
    EXPECT_EQ(sum, doc.at("otherData").number_or("dropped_events_total", -1));
  }
  stop.store(true);
  emitter.join();
}

// --- Watchdog --------------------------------------------------------------

TEST(Watchdog, FlagsStallAfterConsecutiveFlatSweeps) {
  Watchdog wd({.deadline_s = 0.0, .stall_sweeps = 3});
  wd.on_sweep(1.0);  // first sweep: no predecessor, never counts
  wd.on_sweep(0.5);
  wd.on_sweep(0.5);  // flat 1
  wd.on_sweep(0.5);  // flat 2
  EXPECT_FALSE(wd.stalled());
  wd.on_sweep(0.6);  // flat 3 (increase counts as non-improving)
  EXPECT_TRUE(wd.stalled());
  EXPECT_EQ(wd.stall_events(), 1u);
  EXPECT_EQ(wd.sweeps_observed(), 5u);
}

TEST(Watchdog, StrictDecreaseResetsTheWindow) {
  Watchdog wd({.deadline_s = 0.0, .stall_sweeps = 2});
  wd.on_sweep(1.0);
  wd.on_sweep(1.0);   // flat 1
  wd.on_sweep(0.9);   // improvement resets
  wd.on_sweep(0.9);   // flat 1
  EXPECT_FALSE(wd.stalled());
  wd.on_sweep(0.8);
  EXPECT_FALSE(wd.stalled());
  EXPECT_EQ(wd.stall_events(), 0u);
}

TEST(Watchdog, StallVerdictIsStickyAndEpisodesRearm) {
  Watchdog wd({.deadline_s = 0.0, .stall_sweeps = 2});
  wd.on_sweep(1.0);
  wd.on_sweep(1.0);
  wd.on_sweep(1.0);  // episode 1 flagged
  EXPECT_TRUE(wd.stalled());
  EXPECT_EQ(wd.stall_events(), 1u);
  wd.on_sweep(0.5);  // improvement ends the episode, verdict stays sticky
  EXPECT_TRUE(wd.stalled());
  wd.on_sweep(0.5);
  wd.on_sweep(0.5);  // episode 2
  EXPECT_EQ(wd.stall_events(), 2u);
}

TEST(Watchdog, NanCountsAsNonImproving) {
  Watchdog wd({.deadline_s = 0.0, .stall_sweeps = 2});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  wd.on_sweep(1.0);
  wd.on_sweep(nan);
  wd.on_sweep(nan);
  EXPECT_TRUE(wd.stalled());
}

TEST(Watchdog, DeadlineOverrunIsFlaggedAndSticky) {
  Watchdog wd({.deadline_s = 0.01, .stall_sweeps = 3});
  EXPECT_FALSE(wd.deadline_exceeded());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  wd.check_deadline();
  EXPECT_TRUE(wd.deadline_exceeded());
  wd.check_deadline();  // idempotent once flagged
  EXPECT_TRUE(wd.deadline_exceeded());
}

TEST(Watchdog, ZeroDeadlineNeverFires) {
  Watchdog wd({.deadline_s = 0.0, .stall_sweeps = 3});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  wd.check_deadline();
  EXPECT_FALSE(wd.deadline_exceeded());
}

// The per-sweep hook polls a deadline-only watchdog (ObsContext::deadline)
// without feeding it convergence progress: the wall clock is checked, but
// no sweep is observed and no stall window advances.
TEST(Watchdog, DeadlinePollerIsCheckedPerSweepWithoutConvergenceFeed) {
  Watchdog wd({.deadline_s = 0.005, .stall_sweeps = 2});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  detail::record_sweep_metrics(/*metrics=*/nullptr, /*watchdog=*/nullptr,
                               /*deadline=*/&wd, /*numerics=*/nullptr,
                               /*sweep=*/0, /*offdiag_frob=*/1.0,
                               /*max_rel_offdiag=*/1.0, /*rotations=*/1,
                               /*skipped=*/0);
  EXPECT_TRUE(wd.deadline_exceeded());
  EXPECT_EQ(wd.sweeps_observed(), 0u);  // poll only, no on_sweep feed
  EXPECT_FALSE(wd.stalled());

  // An aliased pointer (watchdog == deadline) is not polled twice and the
  // convergence feed still runs once per sweep.
  Watchdog both({.deadline_s = 0.005, .stall_sweeps = 2});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  detail::record_sweep_metrics(/*metrics=*/nullptr, /*watchdog=*/&both,
                               /*deadline=*/&both, /*numerics=*/nullptr,
                               /*sweep=*/0, /*offdiag_frob=*/1.0,
                               /*max_rel_offdiag=*/1.0, /*rotations=*/1,
                               /*skipped=*/0);
  EXPECT_TRUE(both.deadline_exceeded());
  EXPECT_EQ(both.sweeps_observed(), 1u);
}

// Regression: svd_batch used to poll --deadline-s only *between* items, so
// one long matrix overran the budget unbounded.  The deadline check is now
// threaded into the per-sweep hook of the in-flight item; the trace proves
// it — the watchdog.deadline instant must land well inside the first item
// span (one sweep in), not at its very end where the old between-items poll
// sat.
TEST(Watchdog, BatchDeadlineIsPolledInsideAnInFlightItem) {
  // Compiled out, the engines hold no watchdog to poll.
  if (!kEnabled) GTEST_SKIP() << "watchdog compiled out (HJSVD_OBS=OFF)";
  Rng rng(20260808);
  std::vector<Matrix> batch;
  batch.push_back(random_gaussian(128, 96, rng));

  TraceRecorder trace;
  MetricsRegistry metrics;
  Watchdog wd({.deadline_s = 1e-4, .stall_sweeps = 3}, &trace, &metrics);
  SvdOptions opt;
  opt.trace = &trace;
  opt.metrics = &metrics;
  opt.watchdog = &wd;
  svd_batch(batch, opt, /*threads=*/1);
  ASSERT_TRUE(wd.deadline_exceeded());

  double instant_ts = -1.0;
  double item_ts = -1.0, item_end = -1.0;
  for (const TraceRecorder::Event& e : trace.snapshot()) {
    if (e.ph == 'i' && e.name == "watchdog.deadline" && instant_ts < 0.0)
      instant_ts = e.ts_us;
    if (e.ph == 'X' && e.name == "item" && item_ts < 0.0) {
      item_ts = e.ts_us;
      item_end = e.ts_us + e.dur_us;
    }
  }
  ASSERT_GE(instant_ts, 0.0);
  ASSERT_GE(item_ts, 0.0);
  // The 0.1 ms budget expires during the first of ~10 sweeps; the flag must
  // fire in the first half of the item, far from the end-of-item poll.
  EXPECT_GE(instant_ts, item_ts);
  EXPECT_LT(instant_ts, item_ts + 0.5 * (item_end - item_ts));
}

TEST(Watchdog, PublishesMetricsAndInstantEvents) {
  TraceRecorder trace;
  MetricsRegistry metrics;
  Watchdog wd({.deadline_s = 0.0, .stall_sweeps = 2}, &trace, &metrics);
  wd.on_sweep(1.0);
  wd.on_sweep(1.0);
  wd.on_sweep(1.0);
  const report::JsonValue doc = report::parse_json(metrics.to_json());
  bool saw_stalled = false, saw_events = false;
  for (const auto& m : doc.at("metrics").as_array()) {
    if (m.string_or("name") == "obs.watchdog.stalled") {
      saw_stalled = true;
      EXPECT_EQ(m.number_or("value", -1.0), 1.0);
    }
    if (m.string_or("name") == "obs.watchdog.stall_events") {
      saw_events = true;
      EXPECT_EQ(m.number_or("value", -1.0), 1.0);
    }
  }
  EXPECT_TRUE(saw_stalled);
  EXPECT_TRUE(saw_events);
  bool saw_instant = false;
  for (const auto& e : trace.snapshot())
    if (e.ph == 'i' && e.name == "watchdog.stall") saw_instant = true;
  EXPECT_TRUE(saw_instant);
}

// --- SnapshotExporter ------------------------------------------------------

TEST(SnapshotExporter, WritesValidMonotoneJsonl) {
  const ScratchDir dir("jsonl");
  TraceRecorder trace(/*ring_capacity_events=*/128);
  MetricsRegistry metrics;
  metrics.counter_add("test.work", "items", 1);
  {
    SnapshotExporter exporter({.dir = dir.str(),
                               .interval = std::chrono::milliseconds(5)},
                              &trace, &metrics);
    for (int i = 0; i < 5; ++i) {
      metrics.counter_add("test.work", "items", 1);
      metrics.gauge_set("test.level", "units", static_cast<double>(i));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    exporter.stop();
    EXPECT_GE(exporter.samples(), 1u);
  }
  const auto lines = read_lines(dir.str() + "/snapshots.jsonl");
  ASSERT_GE(lines.size(), 1u);
  std::int64_t last_seq = -1;
  double last_elapsed = -1.0, last_counter = -1.0;
  for (const std::string& line : lines) {
    const report::JsonValue snap = report::parse_json(line);
    EXPECT_EQ(snap.string_or("schema"), kSnapshotsSchema);
    const auto seq = static_cast<std::int64_t>(snap.number_or("seq", -1.0));
    EXPECT_GT(seq, last_seq);  // strictly increasing
    last_seq = seq;
    const double elapsed = snap.number_or("elapsed_us", -1.0);
    EXPECT_GE(elapsed, last_elapsed);  // non-decreasing
    last_elapsed = elapsed;
    EXPECT_GE(snap.number_or("dropped_events", -1.0), 0.0);
    const double counter = snap.at("counters").number_or("test.work", -1.0);
    EXPECT_GE(counter, last_counter);  // counters are monotone
    last_counter = counter;
  }
  EXPECT_GE(last_counter, 1.0);
}

TEST(SnapshotExporter, WritesPrometheusExposition) {
  const ScratchDir dir("prom");
  MetricsRegistry metrics;
  metrics.counter_add("svd.rotations.applied", "rotations", 42);
  metrics.gauge_set("svd.matrix.n", "cols", 64.0);
  {
    SnapshotExporter exporter({.dir = dir.str(),
                               .interval = std::chrono::milliseconds(500)},
                              nullptr, &metrics);
    exporter.stop();  // the final sample writes the exposition file
  }
  std::ifstream prom(dir.str() + "/metrics.prom");
  ASSERT_TRUE(prom.is_open());
  std::ostringstream buf;
  buf << prom.rdbuf();
  const std::string text = buf.str();
  EXPECT_NE(text.find("# TYPE hjsvd_svd_rotations_applied counter"),
            std::string::npos);
  EXPECT_NE(text.find("hjsvd_svd_rotations_applied 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hjsvd_svd_matrix_n gauge"), std::string::npos);
}

TEST(SnapshotExporter, ServicesProgrammaticDumpRequests) {
  const ScratchDir dir("dump");
  TraceRecorder trace(/*ring_capacity_events=*/32);
  MetricsRegistry metrics;
  const auto tid = trace.register_thread("main");
  for (int i = 0; i < 50; ++i)
    trace.emit_instant(tid, "t", "e", trace.now_us());
  metrics.counter_add("test.work", "items", 7);
  std::uint64_t dumps = 0;
  {
    SnapshotExporter exporter({.dir = dir.str(),
                               .interval = std::chrono::milliseconds(5)},
                              &trace, &metrics);
    exporter.request_dump();
    // The request is serviced on the next tick; stop() also drains any
    // still-pending request, so the dump exists by the end of this block.
    exporter.stop();
    dumps = exporter.dumps();
  }
  ASSERT_GE(dumps, 1u);
  const report::JsonValue trace_dump = report::parse_json_file(
      SnapshotExporter::dump_trace_path(dir.str(), 1));
  EXPECT_EQ(trace_dump.string_or("schema"), kTraceSchemaV3);
  EXPECT_EQ(trace_dump.at("otherData").number_or("dropped_events_total", -1),
            18.0);
  const report::JsonValue metrics_dump = report::parse_json_file(
      SnapshotExporter::dump_metrics_path(dir.str(), 1));
  EXPECT_EQ(metrics_dump.string_or("schema"), kMetricsSchema);
}

TEST(SnapshotExporter, IgnoresDumpRequestsFromBeforeConstruction) {
  const ScratchDir dir("stale");
  MetricsRegistry metrics;
  dump_now();  // a stale request from "another run"
  {
    SnapshotExporter exporter({.dir = dir.str(),
                               .interval = std::chrono::milliseconds(500)},
                              nullptr, &metrics);
    exporter.stop();
    EXPECT_EQ(exporter.dumps(), 0u);
  }
}

// Regression: a dump_now()/SIGUSR1 arriving after an explicit stop() — the
// sampler thread is gone, the final sample has been written — used to be
// lost forever: the destructor's second stop() early-returned, and the next
// exporter deliberately skips requests predating its construction.  The
// repeated-stop path must service such a request once.
TEST(SnapshotExporter, ServicesDumpRequestArrivingAfterStop) {
  const ScratchDir dir("late_dump");
  TraceRecorder trace;
  MetricsRegistry metrics;
  const auto tid = trace.register_thread("main");
  trace.emit_instant(tid, "t", "e", trace.now_us());
  metrics.counter_add("test.work", "items", 3);
  std::uint64_t dumps = 0;
  {
    SnapshotExporter exporter({.dir = dir.str(),
                               .interval = std::chrono::milliseconds(500)},
                              &trace, &metrics);
    exporter.stop();
    EXPECT_EQ(exporter.dumps(), 0u);
    // The race window: request lands between stop() and destruction.
    dump_now();
    exporter.stop();  // the destructor takes this same path
    dumps = exporter.dumps();
  }
  ASSERT_EQ(dumps, 1u);
  const report::JsonValue trace_dump = report::parse_json_file(
      SnapshotExporter::dump_trace_path(dir.str(), 1));
  EXPECT_EQ(trace_dump.string_or("schema"), kTraceSchema);
  const report::JsonValue metrics_dump = report::parse_json_file(
      SnapshotExporter::dump_metrics_path(dir.str(), 1));
  EXPECT_EQ(metrics_dump.string_or("schema"), kMetricsSchema);
}

// --- End-to-end: live telemetry never changes the arithmetic ---------------

TEST(LiveTelemetry, ResultsAreByteIdenticalWithAndWithoutLiveSinks) {
  Rng rng(20240808);
  const Matrix a = random_gaussian(48, 32, rng);
  SvdOptions plain;
  plain.compute_u = true;
  plain.compute_v = true;
  const SvdResult bare = svd(a, plain);

  const ScratchDir dir("e2e");
  TraceRecorder trace(/*ring_capacity_events=*/256);
  MetricsRegistry metrics;
  Watchdog watchdog({.deadline_s = 3600.0, .stall_sweeps = 3}, &trace,
                    &metrics);
  SvdOptions live = plain;
  live.trace = &trace;
  live.metrics = &metrics;
  live.watchdog = &watchdog;
  SvdResult observed;
  {
    SnapshotExporter exporter({.dir = dir.str(),
                               .interval = std::chrono::milliseconds(2)},
                              &trace, &metrics, &watchdog);
    observed = svd(a, live);
    exporter.stop();
  }
  ASSERT_EQ(bare.singular_values.size(), observed.singular_values.size());
  for (std::size_t i = 0; i < bare.singular_values.size(); ++i)
    EXPECT_EQ(bare.singular_values[i], observed.singular_values[i]);
  EXPECT_EQ(bare.sweeps, observed.sweeps);
  // The engines only feed the watchdog when the obs layer is compiled in;
  // with HJSVD_OBS=OFF the run must still be byte-identical (above), it
  // just observes nothing.
  if (obs::kEnabled) {
    EXPECT_GE(watchdog.sweeps_observed(), bare.sweeps);
  }
  EXPECT_FALSE(watchdog.deadline_exceeded());
  // The run's artifacts pass the same structural checks the scripts apply.
  const auto lines = read_lines(dir.str() + "/snapshots.jsonl");
  EXPECT_GE(lines.size(), 1u);
  const report::JsonValue doc = report::parse_json(trace.to_json());
  EXPECT_EQ(doc.string_or("schema"), kTraceSchemaV3);
}

}  // namespace
}  // namespace hjsvd::obs
