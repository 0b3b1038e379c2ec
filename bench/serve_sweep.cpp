// hjsvd_serve throughput benchmark (in-process serve::SvdServer).
//
// Drives a wave of hjsvd.serve.v1 request frames through the server at
// each thread count and measures end-to-end request throughput: parse,
// admission, wave coalescing, warm-pool decomposition, and reply
// formatting.  Every reply is checked against the offline svd() reference
// by formatting the reference through the same 17-significant-digit reply
// writer — string equality of the payload (latency stripped) is bitwise
// equality of every singular value and vector entry.  The serving layer
// must never change a single bit.
//
// Results go to BENCH_serve.json (gated by scripts/bench_gate.py).  On a
// single-core host the thread scaling is flat; the bit-identity column and
// the warm-workspace reuse counters are the meaningful assertions.
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/svd.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "linalg/generate.hpp"
#include "obs/manifest.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

using namespace hjsvd;

namespace {

std::string fmt(double x) {
  std::ostringstream os;
  os.precision(6);
  os << x;
  return os.str();
}

std::string manifest(const std::string& config) {
  obs::RunManifest m;
  m.tool = "bench_serve_sweep";
  m.config = config;
  return obs::manifest_json(m);
}

/// One request frame over a fresh gaussian matrix, asking for V so the
/// reply exercises the vector payload path, not just sigma.
std::string make_frame(std::size_t index, std::size_t rows, std::size_t cols,
                       Rng& rng) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"schema\": \"" << serve::kProtocolSchema << "\", \"id\": \"req-"
     << index << "\", \"rows\": " << rows << ", \"cols\": " << cols
     << ", \"compute_v\": true, \"data\": [";
  const Matrix a = random_gaussian(rows, cols, rng);
  bool first = true;
  for (std::size_t j = 0; j < cols; ++j)
    for (std::size_t i = 0; i < rows; ++i) {
      os << (first ? "" : ", ") << a(i, j);
      first = false;
    }
  os << "]}";
  return os.str();
}

/// Strips the run-dependent latency_ms tail so two ok replies over the same
/// result compare equal as strings (and therefore bitwise).
std::string payload_of(const std::string& reply) {
  const std::size_t cut = reply.rfind(",\"latency_ms\":");
  return cut == std::string::npos ? reply : reply.substr(0, cut);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("hjsvd_serve request throughput with offline bit-identity checks");
  cli.add_option("count", "24", "request frames per wave");
  cli.add_option("rows", "32", "rows per request matrix");
  cli.add_option("cols", "24", "cols per request matrix");
  cli.add_option("threads", "1,2,4", "engine thread counts to benchmark");
  cli.add_option("reps", "3", "timed waves per thread count (best-of)");
  cli.add_option("wave-max", "16", "server wave coalescing bound");
  cli.add_option("out", "BENCH_serve.json", "JSON output path");
  cli.parse(argc, argv);
  const auto count = static_cast<std::size_t>(cli.get_int("count"));
  const auto rows = static_cast<std::size_t>(cli.get_int("rows"));
  const auto cols = static_cast<std::size_t>(cli.get_int("cols"));
  const auto threads = cli.get_int_list("threads");
  const int reps = static_cast<int>(cli.get_int("reps"));
  const auto wave_max = static_cast<std::size_t>(cli.get_int("wave-max"));

  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::cout << "== hjsvd_serve request throughput ==\n"
            << "hardware threads available: " << hw_threads << "\n\n";

  Rng rng(20140521);
  std::vector<std::string> frames;
  frames.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    frames.push_back(make_frame(i, rows, cols, rng));

  // Offline reference: parse each frame exactly as the server does, run the
  // plain svd(), and format the result through the same reply writer.  The
  // expected payload is what the server must reproduce byte-for-byte.
  std::map<std::string, std::string> expected;
  for (const std::string& frame : frames) {
    const serve::Request req = serve::parse_request(frame);
    const SvdResult ref = svd(serve::request_matrix(req),
                              serve::request_options(req));
    expected[req.id] = payload_of(serve::format_ok_reply(req, ref, 0.0));
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"serve_sweep\",\n"
       << "  \"manifest\": "
       << manifest("count=" + cli.get("count") + " rows=" + cli.get("rows") +
                   " cols=" + cli.get("cols") + " threads=" +
                   cli.get("threads") + " reps=" + cli.get("reps") +
                   " wave-max=" + cli.get("wave-max"))
       << ",\n"
       << "  \"hardware_threads\": " << hw_threads << ",\n"
       << "  \"count\": " << count << ",\n"
       << "  \"reps\": " << reps << ",\n  \"runs\": [\n";

  AsciiTable table({"threads", "seconds", "requests/s", "ws reuse",
                    "ws alloc", "bit-identical"});
  table.set_caption("serve wave of " + std::to_string(count) + " x " +
                    std::to_string(rows) + "x" + std::to_string(cols) +
                    " requests (compute_v):");

  bool all_identical = true;
  bool first_run = true;
  for (int t : threads) {
    serve::ServerConfig config;
    config.threads = static_cast<std::size_t>(t);
    config.queue_capacity = count + 8;
    config.wave_max = wave_max;
    serve::SvdServer server(config);

    std::mutex reply_mu;
    std::map<std::string, std::string> replies;
    const auto submit_wave = [&] {
      for (const std::string& frame : frames)
        server.submit_line(frame, [&](const std::string& reply) {
          const serve::Request req = serve::parse_request(frame);
          std::lock_guard<std::mutex> lock(reply_mu);
          replies[req.id] = payload_of(reply);
        });
      server.drain();
    };

    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      {
        std::lock_guard<std::mutex> lock(reply_mu);
        replies.clear();
      }
      Timer timer;
      submit_wave();
      best = std::min(best, timer.seconds());
    }

    bool ok = replies.size() == expected.size();
    for (const auto& [id, payload] : expected) {
      const auto it = replies.find(id);
      ok = ok && it != replies.end() && it->second == payload;
    }
    all_identical = all_identical && ok;

    const std::uint64_t ws_reuse = server.workspace_reuse_total();
    const std::uint64_t ws_alloc = server.workspace_alloc_total();
    server.stop();
    const double per_s = static_cast<double>(count) / best;
    json << (first_run ? "" : ",\n") << "    {\"threads\": " << t
         << ", \"seconds\": " << fmt(best)
         << ", \"requests_per_s\": " << fmt(per_s)
         << ", \"workspace_reuse\": " << ws_reuse
         << ", \"workspace_alloc\": " << ws_alloc
         << ", \"bit_identical\": " << (ok ? "true" : "false") << "}";
    first_run = false;
    table.add_row({std::to_string(t), fmt(best), format_fixed(per_s, 1),
                   std::to_string(ws_reuse), std::to_string(ws_alloc),
                   ok ? "yes" : "NO"});
  }
  json << "\n  ],\n  \"all_bit_identical\": "
       << (all_identical ? "true" : "false") << "\n}\n";
  std::cout << table.to_string() << '\n';

  const std::string out_path = cli.get("out");
  write_file(out_path, json.str());
  std::cout << "JSON written to " << out_path << '\n';

  if (!all_identical) {
    std::cerr << "BIT-IDENTITY FAILURE: serve replies diverged from the "
                 "offline svd() reference\n";
    return 1;
  }
  return 0;
}
