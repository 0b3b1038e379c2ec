// Chrome trace-event recorder (open the output in Perfetto / about:tracing).
//
// Model: each participating thread registers once and receives a handle
// (tid); events are appended to that handle's private buffer under a
// per-buffer mutex that is uncontended in steady state (only a concurrent
// dump ever takes it from another thread), so recording stays cheap after
// registration.  Spans are emitted as complete events (ph "X") with
// microsecond timestamps measured from the recorder's construction on the
// steady clock; the accelerator simulator registers its units under a
// separate process id and timestamps events in *simulated* time, so
// hardware and software timelines can be loaded side by side.  Counter
// samples (ph "C") render as Perfetto counter tracks next to the spans —
// queue and FIFO occupancy timelines live there.
//
// Flight-recorder mode: constructing the recorder with a nonzero
// `ring_capacity_events` bounds every per-thread buffer to that many
// events.  When a buffer is full the *oldest* event is dropped and the
// owning thread's drop counter is incremented, so a long-lived process
// (the planned hjsvd_serve daemon) holds the most recent window of
// activity in bounded memory and can be dumped at any time.
//
// Serialized format (docs/OBSERVABILITY.md has the event taxonomy):
//   { "schema": "hjsvd.trace.v2", "displayTimeUnit": "ms",
//     "traceEvents": [ {"ph":"M",...thread/process names...},
//                      {"ph":"X","name":"sweep","cat":"svd","pid":1,
//                       "tid":2,"ts":12.5,"dur":801.2,"args":{...}},
//                      {"ph":"C","name":"sim.param_fifo.occupancy","pid":2,
//                       "tid":0,"ts":13.0,"args":{"value":5}}, ... ] }
//
// Schema history:
//   hjsvd.trace.v1 — spans (ph "X"), instants (ph "i"), metadata (ph "M").
//   hjsvd.trace.v2 — v1 plus counter events (ph "C").
//   hjsvd.trace.v3 — v2 plus flight-recorder metadata in "otherData":
//     "flight_recorder": true, "ring_capacity_events": N,
//     "dropped_events_total": D, "dropped_events_by_tid": [d0, d1, ...].
//     Emitted only when the recorder runs in ring mode; unbounded
//     recorders keep writing byte-identical v2 documents.  Nothing was
//     removed or renamed at any step, so v1 consumers that only read
//     "X"/"M"/"i" events can treat all three versions identically.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hjsvd::obs {

/// Well-known process ids of the two timelines in one trace file.
inline constexpr int kSoftwarePid = 1;   // wall-clock (steady_clock) events
inline constexpr int kSimulatorPid = 2;  // simulated-time (cycle) events

/// Schema tag written by unbounded recorders.  v2 = v1 plus counter events
/// (ph "C"); see the header comment for the compat contract.
inline constexpr const char* kTraceSchema = "hjsvd.trace.v2";

/// Schema tag written by flight-recorder (ring) mode: v2 plus ring/drop
/// metadata in "otherData".  Strictly additive over v2.
inline constexpr const char* kTraceSchemaV3 = "hjsvd.trace.v3";

/// Incrementally builds the JSON object for an event's "args" field.
class ArgsBuilder {
 public:
  ArgsBuilder& add(std::string_view key, std::int64_t value);
  ArgsBuilder& add(std::string_view key, std::uint64_t value);
  ArgsBuilder& add(std::string_view key, int value) {
    return add(key, static_cast<std::int64_t>(value));
  }
  ArgsBuilder& add(std::string_view key, unsigned value) {
    return add(key, static_cast<std::uint64_t>(value));
  }
  ArgsBuilder& add(std::string_view key, double value);
  ArgsBuilder& add(std::string_view key, std::string_view value);
  /// The finished JSON object, e.g. {"sweep":3,"n":512}.
  std::string str() const { return body_.empty() ? "{}" : "{" + body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_;
};

/// Thread-safe trace-event collector.
///
/// Concurrency contract (load-bearing for the serve loop — do not weaken):
///  - register_thread() is callable from any thread at any time.
///  - emit_* with a given tid should be called by the thread that owns it;
///    each append takes that buffer's private mutex, so even a misrouted
///    emit is safe (events interleave, nothing races).
///  - write() / to_json() / snapshot() may run concurrently with emission
///    from any thread: they copy each buffer under its mutex and serialize
///    from the copy.  An event emitted while a dump is in flight lands
///    either in that dump or the next one, never torn.  This replaces the
///    old "write() must not run concurrently with emission" restriction.
class TraceRecorder {
 public:
  /// `ring_capacity_events` == 0 (the default) keeps the historical
  /// unbounded-growth behaviour and the hjsvd.trace.v2 serialization.
  /// A nonzero value caps every per-thread buffer at that many events,
  /// drops oldest-first with exact per-thread drop counters, and switches
  /// serialization to hjsvd.trace.v3.
  explicit TraceRecorder(std::size_t ring_capacity_events = 0);

  /// Registers a named timeline and returns its tid.  `pid` selects the
  /// process group (kSoftwarePid or kSimulatorPid).
  std::uint32_t register_thread(std::string name, int pid = kSoftwarePid);

  /// Microseconds elapsed on the steady clock since construction — the
  /// timestamp base of every software (kSoftwarePid) event.
  double now_us() const;

  /// Records a completed span [ts_us, ts_us + dur_us) on timeline `tid`.
  /// `args_json` must be a JSON object (ArgsBuilder::str()).
  void emit_complete(std::uint32_t tid, const char* cat, std::string name,
                     double ts_us, double dur_us, std::string args_json = "{}");

  /// Records a zero-duration instant event.
  void emit_instant(std::uint32_t tid, const char* cat, std::string name,
                    double ts_us, std::string args_json = "{}");

  /// Records a counter sample: Perfetto draws one counter track per
  /// (pid, name) from the ph "C" events, so successive samples with the
  /// same name form a plottable occupancy timeline alongside the spans.
  void emit_counter(std::uint32_t tid, const char* cat, std::string name,
                    double ts_us, double value);

  /// Serializes the Chrome trace-event JSON document (v2, or v3 in ring
  /// mode).  Safe to call concurrently with emission; see the class
  /// contract above.
  void write(std::ostream& os) const;
  std::string to_json() const;

  /// Per-thread ring capacity in events; 0 means unbounded (v2 mode).
  std::size_t ring_capacity() const { return ring_capacity_; }
  /// True when constructed with a nonzero ring capacity.
  bool flight_recorder() const { return ring_capacity_ > 0; }
  /// Events dropped (oldest-first) from timeline `tid` so far.
  std::uint64_t dropped_events(std::uint32_t tid) const;
  /// Sum of dropped_events over all registered timelines.
  std::uint64_t dropped_events_total() const;
  /// Events currently buffered on timeline `tid` (<= ring_capacity()).
  std::size_t buffered_events(std::uint32_t tid) const;

  /// One recorded event (test/inspection access via snapshot()).
  struct Event {
    char ph = 'X';  // 'X' complete, 'i' instant, 'C' counter
    std::string name;
    const char* cat = "";
    double ts_us = 0.0;
    double dur_us = 0.0;
    double value = 0.0;  // counter sample ('C' only)
    std::string args_json;
    std::uint32_t tid = 0;
    int pid = kSoftwarePid;
    std::string thread_name;
  };
  /// All events buffered so far, in per-thread order.  Not for hot paths.
  /// Safe concurrent with emission (same copy-under-lock path as write()).
  std::vector<Event> snapshot() const;

 private:
  struct ThreadLog {
    std::string name;
    int pid = kSoftwarePid;
    mutable std::mutex mu;      // guards events + dropped
    std::deque<Event> events;   // bounded by ring_capacity_ when nonzero
    std::uint64_t dropped = 0;  // oldest events evicted from the ring
  };
  /// Consistent copy of one timeline, taken under its mutex.
  struct LogCopy {
    std::string name;
    int pid = kSoftwarePid;
    std::uint64_t dropped = 0;
    std::vector<Event> events;
  };

  void append(std::uint32_t tid, Event e);
  std::vector<LogCopy> collect() const;

  std::chrono::steady_clock::time_point epoch_;
  std::size_t ring_capacity_ = 0;
  mutable std::mutex mu_;  // guards logs_ growth; per-log state has log->mu
  std::deque<std::unique_ptr<ThreadLog>> logs_;
};

/// RAII wall-clock span on a software timeline: opens at construction,
/// emits a complete event at end()/destruction.  A default-constructed or
/// null-recorder Span is an inert no-op, so call sites need no branching.
class Span {
 public:
  Span() = default;
  Span(TraceRecorder* rec, std::uint32_t tid, const char* cat,
       std::string name, std::string args_json = "{}")
      : rec_(rec), tid_(tid), cat_(cat), name_(std::move(name)),
        args_(std::move(args_json)), start_us_(rec ? rec->now_us() : 0.0) {}
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      end();
      rec_ = other.rec_;
      tid_ = other.tid_;
      cat_ = other.cat_;
      name_ = std::move(other.name_);
      args_ = std::move(other.args_);
      start_us_ = other.start_us_;
      other.rec_ = nullptr;
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  void end() {
    if (rec_ == nullptr) return;
    rec_->emit_complete(tid_, cat_, std::move(name_), start_us_,
                        rec_->now_us() - start_us_, std::move(args_));
    rec_ = nullptr;
  }

 private:
  TraceRecorder* rec_ = nullptr;
  std::uint32_t tid_ = 0;
  const char* cat_ = "";
  std::string name_;
  std::string args_;
  double start_us_ = 0.0;
};

}  // namespace hjsvd::obs
