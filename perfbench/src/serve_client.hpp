// Drives an in-process serve::SvdServer with hjsvd.serve.v1 frames, the way
// a generator thread of independent clients would: a saturated phase that
// keeps a bounded number of requests in flight, and an open-loop phase that
// sends on a fixed schedule and times each request from when it was due.
// Every reply is compared, inside its callback, with the expected payload
// (offline svd() through the same reply writer, latency stripped).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace perfbench {

class ServeClient {
 public:
  /// `frames[k]` must carry a unique id; `expected[k]` is its ok payload.
  /// With `spans` set the server gets a trace sink and every request
  /// becomes a span tree in `spans`.
  ServeClient(const std::vector<std::string>& frames,
              const std::vector<std::string>& expected,
              const hjsvd::serve::ServerConfig& config, Spans* spans);
  ~ServeClient();
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  struct Phase {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;  ///< Error replies and wrong outputs.
    std::uint64_t wrong = 0;   ///< Ok replies whose payload differed.
    std::uint64_t ok = 0;
    double wall_s = 0.0;             ///< First send to last reply.
    double rate_per_s = 0.0;         ///< Median ok replies per second.
    std::vector<double> latency_ms;  ///< Ok replies only.
    std::vector<double> gen_lag_ms;
  };

  /// Sends frames round-robin for `seconds` (at least `min_requests`),
  /// never more than `max_in_flight` unanswered; latency from send time.
  Phase saturated(double seconds, std::size_t min_requests,
                  std::size_t max_in_flight);
  /// Sends at `rate_per_s` on a fixed schedule for `seconds`; latency from
  /// each request's due time.
  Phase open_loop(double seconds, double rate_per_s);

  std::uint64_t workspace_alloc_total() const;

  /// Requests sent per frame, counting from the `from`-th request.
  std::vector<std::uint64_t> requests_per_frame(std::size_t from) const;
  std::size_t requests_sent() const { return requests_.size(); }

  /// Counts the reply to the `seq`-th request as wrong whatever it holds
  /// (the smoke test's deliberately corrupted output).
  void corrupt_request(std::uint64_t seq) { corrupt_seq_ = seq; }

  /// serve.* layer metrics from the traced requests, counting from the
  /// `from`-th request; adds their span trees to the spans (spans set only).
  std::vector<Metric> trace_metrics(std::size_t from);

 private:
  struct Request {
    std::size_t frame = 0;
    std::uint64_t seq = 0;
    Clock::time_point due, sent, submitted, replied;
    bool ok = false;
    bool wrong = false;
  };

  void send(std::size_t frame, Clock::time_point due);
  Phase finish(std::size_t first, bool from_due);

  const std::vector<std::string>& frames_;
  const std::vector<std::string>& expected_;
  Spans* spans_;
  std::uint64_t corrupt_seq_ = ~std::uint64_t{0};
  std::unique_ptr<hjsvd::obs::TraceRecorder> recorder_;
  double recorder_offset_us_ = 0.0;  ///< spans time - recorder time.
  std::deque<Request> requests_;     ///< Stable addresses for callbacks.
  std::size_t next_frame_ = 0;

  std::mutex mu_;  // guards in_flight_
  std::condition_variable cv_;
  std::size_t in_flight_ = 0;

  std::unique_ptr<hjsvd::serve::SvdServer> server_;  // last: stops first
};

}  // namespace perfbench
