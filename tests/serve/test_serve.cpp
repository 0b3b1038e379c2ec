// hjsvd.serve.v1 protocol and SvdServer contracts: malformed-frame fuzz,
// queue-time deadline expiry, deterministic overload rejection, duplicate
// id handling, multi-client thread-count bit identity, and the warm
// workspace guarantee.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/svd.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"

namespace hjsvd::serve {
namespace {

/// Deterministic request frame whose payload round-trips exactly: 17
/// significant digits survive print -> parse bit-for-bit.
std::string make_frame(const std::string& id, std::size_t rows,
                       std::size_t cols, Rng& rng,
                       const std::string& extra_fields = "") {
  std::ostringstream os;
  os.precision(17);
  os << "{\"schema\":\"" << kProtocolSchema << "\",\"id\":\"" << id
     << "\",\"rows\":" << rows << ",\"cols\":" << cols << ",\"data\":[";
  for (std::size_t i = 0; i < rows * cols; ++i) {
    if (i != 0) os << ',';
    os << rng.gaussian();
  }
  os << ']';
  if (!extra_fields.empty()) os << ',' << extra_fields;
  os << '}';
  return os.str();
}

/// Collects replies keyed by id; safe for concurrent repliers.
class ReplyLog {
 public:
  SvdServer::ReplyFn sink() {
    return [this](const std::string& line) {
      std::lock_guard<std::mutex> lock(mu_);
      auto [it, inserted] = replies_.emplace(id_of(line), line);
      (void)it;
      total_++;
      duplicate_ids_ |= !inserted;
    };
  }
  std::size_t total() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }
  bool duplicate_ids() const {
    std::lock_guard<std::mutex> lock(mu_);
    return duplicate_ids_;
  }
  std::string reply(const std::string& id) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = replies_.find(id);
    return it == replies_.end() ? std::string() : it->second;
  }
  std::map<std::string, std::string> all() const {
    std::lock_guard<std::mutex> lock(mu_);
    return replies_;
  }

 private:
  static std::string id_of(const std::string& line) {
    const std::string key = "\"id\":\"";
    const std::size_t at = line.find(key);
    if (at == std::string::npos) return "?";
    const std::size_t end = line.find('"', at + key.size());
    return line.substr(at + key.size(), end - at - key.size());
  }
  mutable std::mutex mu_;
  std::map<std::string, std::string> replies_;
  std::size_t total_ = 0;
  bool duplicate_ids_ = false;
};

bool is_error(const std::string& reply, const char* code) {
  return reply.find("\"status\":\"error\"") != std::string::npos &&
         reply.find(std::string("\"code\":\"") + code + "\"") !=
             std::string::npos;
}

TEST(ServeProtocol, ParsesFullFrameAndDefaults) {
  Rng rng(1);
  const Request req = parse_request(make_frame(
      "r1", 3, 2, rng,
      "\"method\":\"plain\",\"compute_v\":true,\"tolerance\":1e-10,"
      "\"max_sweeps\":12,\"priority\":5,\"deadline_ms\":250"));
  EXPECT_EQ(req.id, "r1");
  EXPECT_EQ(req.rows, 3u);
  EXPECT_EQ(req.cols, 2u);
  EXPECT_EQ(req.data.size(), 6u);
  EXPECT_EQ(req.method, SvdMethod::kPlainHestenes);
  EXPECT_FALSE(req.compute_u);
  EXPECT_TRUE(req.compute_v);
  EXPECT_EQ(req.tolerance, 1e-10);
  EXPECT_EQ(req.max_sweeps, 12u);
  EXPECT_EQ(req.priority, 5);
  EXPECT_EQ(req.deadline_ms, 250.0);

  Rng rng2(1);
  const Request defaults = parse_request(make_frame("r2", 3, 2, rng2));
  EXPECT_EQ(defaults.method, SvdMethod::kModifiedHestenes);
  EXPECT_EQ(defaults.tolerance, 1e-13);
  EXPECT_EQ(defaults.priority, 0);
  EXPECT_EQ(defaults.deadline_ms, 0.0);
}

/// Malformed-frame fuzz: every corruption is rejected with a BadRequest
/// (never a crash or an accepted frame), and the id is recovered whenever
/// the frame carried one.
TEST(ServeProtocol, MalformedFramesAreRejected) {
  Rng rng(2);
  const std::string good = make_frame("ok", 2, 2, rng);
  // Truncations at every prefix length must never parse successfully.
  for (std::size_t cut = 0; cut < good.size(); ++cut)
    EXPECT_THROW((void)parse_request(good.substr(0, cut)), BadRequest)
        << "prefix length " << cut;

  const struct {
    const char* name;
    std::string frame;
    const char* expect_id;
  } cases[] = {
      {"not json", "hello", ""},
      {"not an object", "[1,2,3]", ""},
      {"missing id", R"({"rows":2,"cols":2,"data":[1,2,3,4]})", ""},
      {"empty id", R"({"id":"","rows":2,"cols":2,"data":[1,2,3,4]})", ""},
      {"wrong schema",
       R"({"schema":"hjsvd.serve.v9","id":"x","rows":2,"cols":2,"data":[1,2,3,4]})",
       "x"},
      {"zero rows", R"({"id":"x","rows":0,"cols":2,"data":[]})", "x"},
      {"negative cols", R"({"id":"x","rows":2,"cols":-2,"data":[]})", "x"},
      {"fractional rows", R"({"id":"x","rows":2.5,"cols":2,"data":[]})", "x"},
      {"oversized shape",
       R"({"id":"x","rows":1000000,"cols":1000000,"data":[]})", "x"},
      {"data length mismatch",
       R"({"id":"x","rows":2,"cols":2,"data":[1,2,3]})", "x"},
      {"non-numeric data",
       R"({"id":"x","rows":2,"cols":2,"data":[1,2,"three",4]})", "x"},
      {"bad method",
       R"({"id":"x","rows":2,"cols":2,"data":[1,2,3,4],"method":"qr"})", "x"},
      {"zero tolerance",
       R"({"id":"x","rows":2,"cols":2,"data":[1,2,3,4],"tolerance":0})", "x"},
      {"zero max_sweeps",
       R"({"id":"x","rows":2,"cols":2,"data":[1,2,3,4],"max_sweeps":0})", "x"},
      {"negative deadline",
       R"({"id":"x","rows":2,"cols":2,"data":[1,2,3,4],"deadline_ms":-5})",
       "x"},
  };
  for (const auto& c : cases) {
    try {
      (void)parse_request(c.frame);
      FAIL() << c.name << " was accepted";
    } catch (const BadRequest& e) {
      EXPECT_EQ(e.id, c.expect_id) << c.name;
      EXPECT_FALSE(e.message.empty()) << c.name;
    }
  }
}

TEST(ServeProtocol, ShapeLimitsAreEnforced) {
  Rng rng(3);
  Limits limits;
  limits.max_dim = 4;
  EXPECT_NO_THROW((void)parse_request(make_frame("a", 4, 4, rng), limits));
  EXPECT_THROW((void)parse_request(make_frame("b", 5, 2, rng), limits),
               BadRequest);
  limits.max_entries = 8;
  EXPECT_THROW((void)parse_request(make_frame("c", 3, 3, rng), limits),
               BadRequest);
}

/// The wire format is a bit-exact transport: an ok reply rendered from an
/// offline svd() is the reference the server must reproduce.
TEST(ServeServer, RepliesBitIdenticalToOfflineSvd) {
  Rng rng(4);
  const std::string frame =
      make_frame("bit", 14, 9, rng, "\"compute_u\":true,\"compute_v\":true");
  const Request req = parse_request(frame);
  const SvdResult offline = svd(request_matrix(req), request_options(req));

  for (const std::size_t threads : {1u, 4u}) {
    ServerConfig config;
    config.threads = threads;
    SvdServer server(config);
    ReplyLog log;
    server.submit_line(frame, log.sink());
    server.drain();
    const std::string reply = log.reply("bit");
    ASSERT_NE(reply.find("\"status\":\"ok\""), std::string::npos) << reply;
    // Strip the latency tail: everything before it must match the offline
    // rendering byte for byte (sigma, U, V at 17 digits).
    const std::string expected = format_ok_reply(req, offline, 0.0);
    const std::string cut = ",\"latency_ms\":";
    EXPECT_EQ(reply.substr(0, reply.find(cut)),
              expected.substr(0, expected.find(cut)))
        << "threads " << threads;
  }
}

/// Concurrent clients at thread counts {1, 4}: every reply arrives exactly
/// once and the payloads agree bitwise across server configurations.
TEST(ServeServer, MultiClientBitIdentityAcrossThreadCounts) {
  constexpr int kClients = 3;
  constexpr int kPerClient = 4;
  // Pre-render the frames so both servers see identical requests.
  std::vector<std::vector<std::string>> frames(kClients);
  for (int c = 0; c < kClients; ++c) {
    Rng rng(100 + c);
    for (int k = 0; k < kPerClient; ++k)
      frames[c].push_back(
          make_frame("c" + std::to_string(c) + "-" + std::to_string(k), 10, 7,
                     rng, "\"compute_v\":true"));
  }

  std::map<std::string, std::string> baseline;
  for (const std::size_t threads : {1u, 4u}) {
    ServerConfig config;
    config.threads = threads;
    SvdServer server(config);
    ReplyLog log;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        for (const std::string& frame : frames[c])
          server.submit_line(frame, log.sink());
      });
    for (std::thread& t : clients) t.join();
    server.drain();

    EXPECT_EQ(log.total(), kClients * kPerClient);
    EXPECT_FALSE(log.duplicate_ids());
    std::map<std::string, std::string> payloads;
    for (auto& [id, reply] : log.all()) {
      ASSERT_NE(reply.find("\"status\":\"ok\""), std::string::npos)
          << id << ": " << reply;
      payloads[id] = reply.substr(0, reply.find(",\"latency_ms\":"));
    }
    if (baseline.empty())
      baseline = payloads;
    else
      EXPECT_EQ(payloads, baseline) << "threads " << threads;
  }
}

/// A request whose deadline elapses while queued is answered with
/// deadline_expired and never decomposed; its wave-mates are unaffected.
TEST(ServeServer, DeadlineExpiredWhileQueued) {
  ServerConfig config;
  config.threads = 1;
  config.hold_dispatch = true;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  SvdServer server(config);
  ReplyLog log;
  Rng rng(5);
  server.submit_line(make_frame("doomed", 6, 4, rng, "\"deadline_ms\":1"),
                     log.sink());
  server.submit_line(make_frame("patient", 6, 4, rng), log.sink());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.drain();

  EXPECT_TRUE(is_error(log.reply("doomed"), kErrDeadlineExpired))
      << log.reply("doomed");
  EXPECT_NE(log.reply("patient").find("\"status\":\"ok\""), std::string::npos)
      << log.reply("patient");
  server.stop();
  if (!obs::kEnabled) return;  // the replies above carry the verdicts
  EXPECT_EQ(metrics.counter("serve.expired.deadline").value_or(0), 1u);
  EXPECT_EQ(metrics.counter("serve.replies_ok").value_or(0), 1u);
}

/// Bounded admission: with dispatch held, exactly the submissions beyond
/// the queue capacity are rejected — deterministically the latest ones.
TEST(ServeServer, OverloadRejectionIsDeterministic) {
  ServerConfig config;
  config.threads = 1;
  config.queue_capacity = 3;
  config.hold_dispatch = true;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  SvdServer server(config);
  ReplyLog log;
  Rng rng(6);
  // append(), not operator+: GCC 12 reports a false -Wrestrict on
  // "literal" + std::string in this test.
  const auto id = [](int k) {
    return std::string("q").append(std::to_string(k));
  };
  for (int k = 0; k < 7; ++k)
    server.submit_line(make_frame(id(k), 5, 3, rng), log.sink());
  // Rejections replied synchronously, before any dispatch.
  for (int k = 3; k < 7; ++k)
    EXPECT_TRUE(is_error(log.reply(id(k)), kErrOverload)) << log.reply(id(k));
  EXPECT_EQ(server.queue_depth(), 3u);
  server.drain();
  for (int k = 0; k < 3; ++k)
    EXPECT_NE(log.reply(id(k)).find("\"status\":\"ok\""), std::string::npos);
  server.stop();
  if (!obs::kEnabled) return;  // the replies above carry the verdicts
  EXPECT_EQ(metrics.counter("serve.requests_total").value_or(0), 7u);
  EXPECT_EQ(metrics.counter("serve.admitted_total").value_or(0), 3u);
  EXPECT_EQ(metrics.counter("serve.rejected.overload").value_or(0), 4u);
}

TEST(ServeServer, DuplicateInFlightIdIsBadRequest) {
  ServerConfig config;
  config.threads = 1;
  config.hold_dispatch = true;
  SvdServer server(config);
  ReplyLog log;
  Rng rng(7);
  server.submit_line(make_frame("dup", 4, 4, rng), log.sink());
  std::size_t bad = 0;
  server.submit_line(make_frame("dup", 4, 4, rng),
                     [&](const std::string& reply) {
                       EXPECT_TRUE(is_error(reply, kErrBadRequest)) << reply;
                       ++bad;
                     });
  EXPECT_EQ(bad, 1u);
  server.drain();
  // The original request still completed; the id is free again afterwards.
  EXPECT_NE(log.reply("dup").find("\"status\":\"ok\""), std::string::npos);
  std::size_t ok = 0;
  server.submit_line(make_frame("dup", 4, 4, rng),
                     [&](const std::string& reply) {
                       EXPECT_NE(reply.find("\"status\":\"ok\""),
                                 std::string::npos);
                       ++ok;
                     });
  server.drain();
  EXPECT_EQ(ok, 1u);
}

/// The retired mixed-precision engine's token has no alias: a frame naming
/// it is rejected, not silently run on another engine.
TEST(ServeServer, RetiredMixedMethodIsABadRequest) {
  ServerConfig config;
  config.threads = 1;
  SvdServer server(config);
  ReplyLog log;
  server.submit_line(
      R"({"id":"mp","rows":2,"cols":2,"data":[1,2,3,4],"method":"mixed"})",
      log.sink());
  server.drain();
  const std::string reply = log.reply("mp");
  EXPECT_TRUE(is_error(reply, kErrBadRequest)) << reply;
  EXPECT_NE(reply.find("unknown method 'mixed'"), std::string::npos) << reply;
}

/// A poisoned request (non-finite payload reaching the engine) gets an
/// engine_error reply while wave-mates still succeed.
TEST(ServeServer, EngineErrorIsIsolatedToItsRequest) {
  ServerConfig config;
  config.threads = 1;
  config.hold_dispatch = true;
  SvdServer server(config);
  ReplyLog log;
  Rng rng(8);
  server.submit_line(
      R"({"id":"poison","rows":2,"cols":2,"data":[1,2,3,null]})", log.sink());
  // null parses as JSON but not as a number -> bad_request at the parser.
  EXPECT_TRUE(is_error(log.reply("poison"), kErrBadRequest));

  // NaN cannot be expressed in JSON, so craft an Inf overflow instead:
  // 1e999 parses to +inf in strtod-based parsers; if the parser rejects
  // it outright that is also an acceptable typed error.
  server.submit_line(
      R"({"id":"inf","rows":2,"cols":2,"data":[1,2,3,1e999]})", log.sink());
  server.submit_line(make_frame("healthy", 5, 5, rng), log.sink());
  server.drain();
  const std::string inf_reply = log.reply("inf");
  EXPECT_TRUE(is_error(inf_reply, kErrEngine) ||
              is_error(inf_reply, kErrBadRequest))
      << inf_reply;
  EXPECT_NE(log.reply("healthy").find("\"status\":\"ok\""), std::string::npos);
}

/// Warm-pool guarantee: a session of same-shape requests drives
/// workspace.reuse_total up while alloc_total stays flat after the first
/// wave.
TEST(ServeServer, WorkspaceGoesWarmAcrossWaves) {
  ServerConfig config;
  config.threads = 1;  // one worker arena: placement cannot move
  config.hold_dispatch = true;
  config.wave_max = 8;
  SvdServer server(config);
  ReplyLog log;
  Rng rng(9);
  // Six equal-cost items per wave: below the nested-split threshold, so
  // every request runs the sequential arena-backed engine.
  for (int k = 0; k < 6; ++k)
    server.submit_line(make_frame("w1-" + std::to_string(k), 10, 8, rng,
                                  "\"compute_v\":true"),
                       log.sink());
  server.drain();
  const std::uint64_t cold_allocs = server.workspace_alloc_total();
  EXPECT_GT(cold_allocs, 0u);
  EXPECT_GT(server.workspace_reuse_total(), 0u);

  for (int k = 0; k < 6; ++k)
    server.submit_line(make_frame("w2-" + std::to_string(k), 10, 8, rng,
                                  "\"compute_v\":true"),
                       log.sink());
  server.drain();
  EXPECT_EQ(server.workspace_alloc_total(), cold_allocs)
      << "warm waves must be allocation-free";
  EXPECT_GT(server.workspace_reuse_total(), 6u);
  EXPECT_EQ(log.total(), 12u);
}

/// Priority orders dispatch: with a held queue and wave_max 1, the
/// highest-priority request is decomposed first.
TEST(ServeServer, PriorityDrivesDispatchOrder) {
  ServerConfig config;
  config.threads = 1;
  config.hold_dispatch = true;
  config.wave_max = 1;
  SvdServer server(config);
  std::mutex mu;
  std::vector<std::string> order;
  const auto sink = [&](const std::string& reply) {
    if (reply.find("\"status\":\"ok\"") == std::string::npos) return;
    const std::size_t at = reply.find("\"id\":\"") + 6;
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(reply.substr(at, reply.find('"', at) - at));
  };
  Rng rng(10);
  server.submit_line(make_frame("low", 4, 3, rng, "\"priority\":-1"), sink);
  server.submit_line(make_frame("mid", 4, 3, rng), sink);
  server.submit_line(make_frame("high", 4, 3, rng, "\"priority\":9"), sink);
  server.drain();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "high");
  EXPECT_EQ(order[1], "mid");
  EXPECT_EQ(order[2], "low");
}

}  // namespace
}  // namespace hjsvd::serve
