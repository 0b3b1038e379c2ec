// Long-lived asynchronous batch SVD service.
//
// SvdServer turns independent decomposition requests (serve/protocol.hpp
// frames) into coalesced svd waves through one warm EngineInstance: a
// single dispatcher thread drains the admission queue, groups up to
// `wave_max` pending requests by decomposition options, and runs each
// group as one EngineInstance::decompose_batch wave over the resident
// work-stealing pool.  Amortized across a busy session, every request is
// decomposed by warm threads on warm per-worker workspaces — the
// serve.workspace.reuse_total counter grows while alloc_total stays flat.
//
// Contracts:
//   * Exactly one reply per submit_line() call, always.  Malformed frames,
//     duplicate in-flight ids, and overload rejections reply synchronously
//     on the submitting thread; admitted requests reply later from the
//     dispatcher thread (callbacks shared across threads must tolerate
//     that).
//   * Admission control is a bounded queue: when `queue_capacity` requests
//     are already pending, the next admissible frame gets a deterministic
//     "rejected:overload" error reply — never silence, never blocking.
//   * Deadlines are enforced at the admission->dispatch boundary: a
//     request whose deadline_ms elapsed while queued is answered with
//     "deadline_expired" and never computed.  Once dispatched into a wave
//     a request runs to completion (per-sweep deadline polling inside the
//     engine is a batch-wide watchdog concern, not per-request).
//   * Replies are bitwise identical to offline hjsvd::svd() with the same
//     options, at every thread count — inherited from the EngineInstance
//     determinism contract and the 17-digit wire serialization.
//   * Dispatch order is deterministic given an admission order: priority
//     descending, then deadline ascending (no deadline sorts last), then
//     admission sequence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "serve/protocol.hpp"

namespace hjsvd::obs {
class MetricsRegistry;
class TraceRecorder;
}  // namespace hjsvd::obs

namespace hjsvd::serve {

struct ServerConfig {
  /// Engine worker threads; 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  std::size_t threads = 0;
  /// Bounded admission queue: pending requests beyond this are rejected
  /// with "rejected:overload".
  std::size_t queue_capacity = 64;
  /// Most requests coalesced into one dispatch wave.
  std::size_t wave_max = 16;
  /// When true the dispatcher holds off draining the queue until
  /// release_dispatch() — lets tests (and the overload drill) stage a
  /// deterministic queue state before any wave runs.
  bool hold_dispatch = false;
  /// Per-frame admission bounds.
  Limits limits;
  /// Observability sinks (null = record nothing).  serve.* counters are
  /// recorded on both the submit and dispatch paths (MetricsRegistry is
  /// thread-safe); trace spans come from the dispatcher thread only.
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

class SvdServer {
 public:
  /// Reply sink: receives exactly one serialized reply line (no trailing
  /// newline) per submitted frame.
  using ReplyFn = std::function<void(const std::string&)>;

  explicit SvdServer(const ServerConfig& config = {});
  ~SvdServer();  ///< Calls stop().
  SvdServer(const SvdServer&) = delete;
  SvdServer& operator=(const SvdServer&) = delete;

  /// Parses and admits one request frame.  Thread-safe.  `reply` is
  /// invoked exactly once — synchronously for rejections (bad_request,
  /// rejected:overload, shutdown), from the dispatcher thread otherwise.
  void submit_line(std::string_view line, ReplyFn reply);

  /// Lifts a hold_dispatch hold (no-op otherwise, idempotent).
  void release_dispatch();

  /// Blocks until every request admitted so far has been replied to.
  /// Lifts a dispatch hold first (otherwise a held queue never drains).
  void drain();

  /// Drains, stops the dispatcher, and finalizes shutdown metrics
  /// (latency percentile gauges, workspace reuse counters).  New
  /// submissions after stop() begins are rejected.  Idempotent.
  void stop();

  /// Pending (admitted, not yet dispatched) requests.  Thread-safe.
  std::size_t queue_depth() const;

  /// Engine workspace counters (see EngineInstance) — live snapshots, also
  /// exported as serve.workspace.* metrics at stop().
  std::uint64_t workspace_reuse_total() const;
  std::uint64_t workspace_alloc_total() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hjsvd::serve
