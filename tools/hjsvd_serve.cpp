// hjsvd_serve: long-lived batch SVD daemon speaking the hjsvd.serve.v1
// newline-delimited JSON protocol (docs/SERVING.md, src/serve/protocol.hpp).
//
// Default transport is stdio: one request frame per stdin line, one reply
// line per request on stdout (order may differ from submission order —
// correlate by id).  EOF drains the queue, flushes observability artifacts,
// and exits 0.  With --socket PATH (POSIX only) the daemon serves clients
// sequentially over a Unix domain socket instead, until SIGINT/SIGTERM.
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

#ifdef __unix__
#include <csignal>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

using namespace hjsvd;

namespace {

/// Bad command-line usage: reported with the full help text and a distinct
/// exit code (2), unlike runtime failures (1).
class UsageError : public Error {
 public:
  using Error::Error;
};

void print_usage(std::ostream& os) {
  os << "hjsvd_serve: batch SVD service (protocol hjsvd.serve.v1)\n"
        "\n"
        "usage: hjsvd_serve [options]\n"
        "\n"
        "Reads newline-delimited JSON request frames from stdin and writes\n"
        "one reply line per request to stdout; EOF drains and exits 0.\n"
        "\n"
        "options:\n"
        "  --threads N         engine worker threads (default: hardware "
        "concurrency)\n"
        "  --queue-capacity N  admission queue bound; beyond it requests\n"
        "                      are rejected with rejected:overload "
        "(default 64)\n"
        "  --wave-max N        max requests coalesced per dispatch wave\n"
        "                      (default 16)\n"
        "  --max-dim N         reject frames with rows or cols above N\n"
        "                      (default 4096)\n"
        "  --hold-until-eof    queue every stdin frame before dispatching\n"
        "                      (deterministic batch mode; stdio only)\n"
        "  --metrics-out PATH  write serve.* metrics JSON at shutdown\n"
        "  --trace-out PATH    write Chrome trace JSON at shutdown\n"
#ifdef __unix__
        "  --socket PATH       serve sequential clients over a Unix domain\n"
        "                      socket instead of stdio (SIGINT/SIGTERM "
        "stops)\n"
#endif
        "  --help              this text\n";
}

std::size_t parse_count(const std::string& name, const std::string& raw,
                        bool allow_zero) {
  try {
    const long long v = std::stoll(raw);
    if (v < 0 || (v == 0 && !allow_zero))
      throw UsageError("--" + name + " must be >= " +
                       (allow_zero ? std::string("0") : std::string("1")) +
                       ", got '" + raw + "'");
    return static_cast<std::size_t>(v);
  } catch (const UsageError&) {
    throw;
  } catch (const std::exception&) {
    throw UsageError("--" + name + " expects an integer, got '" + raw + "'");
  }
}

struct ServeArgs {
  serve::ServerConfig config;
  bool hold_until_eof = false;
  std::string metrics_out;
  std::string trace_out;
  std::string socket_path;
};

ServeArgs parse_args(int argc, char** argv) {
  ServeArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw UsageError(flag + " expects a value");
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      print_usage(std::cout);
      std::exit(0);
    } else if (flag == "--threads") {
      args.config.threads = parse_count("threads", value(), true);
    } else if (flag == "--queue-capacity") {
      args.config.queue_capacity = parse_count("queue-capacity", value(), false);
    } else if (flag == "--wave-max") {
      args.config.wave_max = parse_count("wave-max", value(), false);
    } else if (flag == "--max-dim") {
      args.config.limits.max_dim = parse_count("max-dim", value(), false);
    } else if (flag == "--hold-until-eof") {
      args.hold_until_eof = true;
    } else if (flag == "--metrics-out") {
      args.metrics_out = value();
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--socket") {
#ifdef __unix__
      args.socket_path = value();
#else
      throw UsageError("--socket is only available on POSIX builds");
#endif
    } else {
      throw UsageError("unknown option '" + flag + "'");
    }
  }
  if (args.hold_until_eof && !args.socket_path.empty())
    throw UsageError("--hold-until-eof applies to stdio mode only");
  return args;
}

/// Serializing reply sink: admitted replies arrive from the dispatcher
/// thread while rejections reply inline on the reader thread.
class LineWriter {
 public:
  explicit LineWriter(std::ostream& os) : os_(os) {}
  void write(const std::string& line) {
    std::lock_guard<std::mutex> lock(mu_);
    os_ << line << '\n';
    os_.flush();
  }

 private:
  std::mutex mu_;
  std::ostream& os_;
};

int run_stdio(serve::SvdServer& server) {
  LineWriter out(std::cout);
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    server.submit_line(line, [&out](const std::string& reply) {
      out.write(reply);
    });
  }
  server.drain();
  return 0;
}

#ifdef __unix__

std::atomic<int> g_listen_fd{-1};

void stop_signal_handler(int) {
  // Closing the listening socket fails the blocking accept(), which is the
  // async-signal-safe way to break the accept loop.
  const int fd = g_listen_fd.exchange(-1);
  if (fd >= 0) close(fd);
}

int run_socket(const ServeArgs& args, serve::SvdServer& server) {
  const int listen_fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) throw Error("socket(): cannot create Unix socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (args.socket_path.size() >= sizeof(addr.sun_path)) {
    close(listen_fd);
    throw UsageError("--socket path too long");
  }
  args.socket_path.copy(addr.sun_path, args.socket_path.size());
  unlink(args.socket_path.c_str());
  if (bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) != 0 ||
      listen(listen_fd, 8) != 0) {
    close(listen_fd);
    throw Error("cannot bind/listen on '" + args.socket_path + "'");
  }
  g_listen_fd.store(listen_fd);
  std::signal(SIGINT, stop_signal_handler);
  std::signal(SIGTERM, stop_signal_handler);
  std::cerr << "hjsvd_serve: listening on " << args.socket_path << "\n";

  for (;;) {
    const int fd = accept(g_listen_fd.load(), nullptr, nullptr);
    if (fd < 0) break;  // Listening socket closed by the signal handler.
    std::string buffer;
    char chunk[4096];
    std::mutex write_mu;
    const auto reply_fn = [fd, &write_mu](const std::string& reply) {
      std::lock_guard<std::mutex> lock(write_mu);
      std::string framed = reply;
      framed += '\n';
      std::size_t off = 0;
      while (off < framed.size()) {
        const ssize_t n = ::write(fd, framed.data() + off, framed.size() - off);
        if (n <= 0) break;  // Client gone; replies are best-effort.
        off += static_cast<std::size_t>(n);
      }
    };
    for (;;) {
      const ssize_t n = read(fd, chunk, sizeof chunk);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t nl;
      while ((nl = buffer.find('\n')) != std::string::npos) {
        const std::string line = buffer.substr(0, nl);
        buffer.erase(0, nl + 1);
        if (!line.empty()) server.submit_line(line, reply_fn);
      }
    }
    // Drain before closing so every admitted request's reply still has a
    // live descriptor to land on.
    server.drain();
    close(fd);
  }
  unlink(args.socket_path.c_str());
  server.drain();
  return 0;
}

#endif  // __unix__

}  // namespace

int main(int argc, char** argv) {
  try {
    ServeArgs args = parse_args(argc, argv);

    // Open output files up front so an unwritable path is a usage error
    // (exit 2), not a lost session at shutdown.
    std::ofstream metrics_file, trace_file;
    if (!args.metrics_out.empty()) {
      metrics_file.open(args.metrics_out);
      if (!metrics_file)
        throw UsageError("--metrics-out: cannot open '" + args.metrics_out +
                         "' for writing");
    }
    if (!args.trace_out.empty()) {
      trace_file.open(args.trace_out);
      if (!trace_file)
        throw UsageError("--trace-out: cannot open '" + args.trace_out +
                         "' for writing");
    }
    obs::TraceRecorder recorder(0);
    obs::MetricsRegistry registry;
    if (!args.trace_out.empty()) args.config.trace = &recorder;
    if (!args.metrics_out.empty()) args.config.metrics = &registry;
    args.config.hold_dispatch = args.hold_until_eof;

    int rc = 0;
    {
      serve::SvdServer server(args.config);
#ifdef __unix__
      if (!args.socket_path.empty())
        rc = run_socket(args, server);
      else
#endif
        rc = run_stdio(server);
      server.stop();  // Finalizes latency/workspace shutdown metrics.
    }
    if (metrics_file.is_open()) registry.write(metrics_file);
    if (trace_file.is_open()) recorder.write(trace_file);
    return rc;
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n\n";
    print_usage(std::cerr);
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
