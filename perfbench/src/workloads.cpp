// The three workloads: dense-square (svd()), batch-mixed (svd_batch()) and
// serve-small (serve::SvdServer).  Each generates every input from the seed
// before timing starts, keeps the first output per distinct input as its
// reference, compares every later output with it bit for bit, and checks
// the references after the timed loop.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>

#include "baselines/golub_kahan.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "linalg/generate.hpp"
#include "linalg/residuals.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"
#include "serve_client.hpp"

namespace perfbench {

using hjsvd::Matrix;
using hjsvd::SvdOptions;
using hjsvd::SvdResult;

// --- shared helpers --------------------------------------------------------

bool Checks::expect(bool ok, const std::string& what) {
  if (!ok && ++checks_failed <= 5) std::cerr << "perfbench: FAILED " << what << '\n';
  return ok;
}

bool same_bits(const SvdResult& a, const SvdResult& b) {
  const auto same = [](std::span<const double> x, std::span<const double> y) {
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(), x.size_bytes()) == 0);
  };
  return a.sweeps == b.sweeps && a.converged == b.converged &&
         same(a.singular_values, b.singular_values) &&
         a.u.rows() == b.u.rows() && same(a.u.data(), b.u.data()) &&
         a.v.rows() == b.v.rows() && same(a.v.data(), b.v.data());
}

void corrupt_output(SvdResult& r) {
  if (!r.singular_values.empty()) r.singular_values[0] *= 1.0 + 1e-6;
}

std::string make_frame(std::string_view id_prefix, std::size_t index,
                       const Input& in) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"schema\": \"" << hjsvd::serve::kProtocolSchema << "\", \"id\": \""
     << id_prefix << index << "\", \"rows\": " << in.a.rows() << ", \"cols\": " << in.a.cols()
     << ", \"compute_u\": " << (in.options.compute_u ? "true" : "false")
     << ", \"compute_v\": " << (in.options.compute_v ? "true" : "false")
     << ", \"data\": [";
  const auto data = in.a.data();
  for (std::size_t i = 0; i < data.size(); ++i) os << (i ? ", " : "") << data[i];
  os << "]}";
  return os.str();
}

std::string payload_of(const std::string& reply) {
  return reply.substr(0, reply.rfind(",\"latency_ms\":"));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

std::string sci(double x) {
  std::ostringstream os;
  os << std::scientific << std::setprecision(3) << x;
  return os.str();
}

SvdOptions uv_options() {
  SvdOptions o;
  o.compute_u = true;
  o.compute_v = true;
  return o;
}

/// Accuracy of one decomposition against Golub-Kahan and the residual
/// limits.  The sigma bound is the Gram accuracy model of the matrix-zoo
/// suite, |sigma - sigma_GK| <= 10 n eps sqrt(kappa) sigma_max, widened by
/// Golub-Kahan's own 10 n eps.  The residual limits carry a further 10x
/// margin over the same model.
bool check_accuracy(const Matrix& a, const SvdResult& r, Checks& c,
                    const std::string& label) {
  const SvdResult gk = hjsvd::golub_kahan_svd(a);
  const double n = static_cast<double>(std::min(a.rows(), a.cols()));
  const double smax = gk.singular_values.front();
  const double smin = gk.singular_values.back();
  const double kappa = smin > 0 ? smax / smin : std::numeric_limits<double>::infinity();
  const double sqrt_kappa = std::sqrt(kappa);

  bool ok = c.expect(r.singular_values.size() == gk.singular_values.size(),
                     label + ": sigma count");
  if (!ok) return false;
  const double sig = hjsvd::singular_value_error(r.singular_values, gk.singular_values);
  c.sigma_rel_err = std::max(c.sigma_rel_err, sig);
  ok &= c.expect(sig <= 10.0 * n * kEps * (sqrt_kappa + 1.0),
                 label + ": |sigma - sigma_GK| / sigma_max = " + sci(sig));
  if (!r.v.empty())
    ok &= c.expect(hjsvd::orthogonality_error(r.v) <= 100.0 * n * kEps,
                   label + ": V orthogonality");
  if (!r.u.empty())
    ok &= c.expect(hjsvd::orthogonality_error(r.u) <= 100.0 * n * kEps * kappa,
                   label + ": U orthogonality");
  if (!r.u.empty() && !r.v.empty()) {
    const double bwd = hjsvd::reconstruction_error(a, r);
    c.backward_err = std::max(c.backward_err, bwd);
    ok &= c.expect(bwd <= 100.0 * n * kEps * sqrt_kappa,
                   label + ": backward error " + sci(bwd) + ", kappa " + sci(kappa));
  }
  return ok;
}

/// Seeded Fisher-Yates shuffle.
template <class T>
void shuffle(std::vector<T>& v, hjsvd::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.bounded(i))]);
}

/// `count` sizes evenly spaced over [lo, hi].
std::vector<std::size_t> spread(std::size_t lo, std::size_t hi, std::size_t count) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(lo + (count > 1 ? ((hi - lo) * i + (count - 1) / 2) / (count - 1) : 0));
  return out;
}

/// First output per distinct input, and how many ops each input saw (every
/// one of them fails when the input's first output fails its check).
class References {
 public:
  explicit References(std::size_t inputs) : refs_(inputs), ops_(inputs, 0) {}

  /// Keeps the first result per input; returns false on a bit mismatch.
  bool record(std::size_t i, SvdResult&& r) {
    ++ops_[i];
    if (!refs_[i]) {
      refs_[i] = std::move(r);
      return true;
    }
    return same_bits(*refs_[i], r);
  }
  SvdResult* ref(std::size_t i) { return refs_[i] ? &*refs_[i] : nullptr; }
  std::uint64_t ops(std::size_t i) const { return ops_[i]; }

 private:
  std::vector<std::optional<SvdResult>> refs_;
  std::vector<std::uint64_t> ops_;
};

/// Per-op trace of the closed loops: attaches a fresh TraceRecorder to the
/// call's options and turns the spans the engine emitted (svd gram / sweep /
/// finalize, svd_batch pool and items) into the op's span tree.  Inert when
/// `spans` is null.
class OpTrace {
 public:
  OpTrace(Spans* spans, SvdOptions& opts) : spans_(spans) {
    if (spans_ == nullptr) return;
    begin_us_ = spans_->now_us();
    rec_.emplace();
    offset_us_ = spans_->now_us() - rec_->now_us();
    opts.trace = &*rec_;
  }

  /// Records op `op`: root "op" from construction to `t1`, the public call
  /// `call` over [t0, t1], and the engine spans under it.
  void finish(const char* call, Clock::time_point t0, Clock::time_point t1,
              std::uint64_t op) {
    if (spans_ == nullptr) return;
    const int root = spans_->add("op", begin_us_, spans_->us(t1), -1, op);
    const int parent = spans_->add(call, spans_->us(t0), spans_->us(t1), root, op);
    int pool = parent;
    std::vector<hjsvd::obs::TraceRecorder::Event> items;
    for (const auto& e : rec_->snapshot()) {
      if (e.ph != 'X') continue;
      const double lo = e.ts_us + offset_us_, hi = lo + e.dur_us;
      if (e.name == "gram" || e.name == "sweep" || e.name == "finalize")
        spans_->add("svd." + e.name, lo, hi, parent, op);
      else if (e.name == "svd_batch")
        pool = spans_->add("api.pool", lo, hi, parent, op);
      else if (e.name == "item")
        items.push_back(e);
    }
    for (const auto& e : items)
      spans_->add("svd.item", e.ts_us + offset_us_, e.ts_us + offset_us_ + e.dur_us,
                  pool, op);
  }

 private:
  Spans* spans_;
  std::optional<hjsvd::obs::TraceRecorder> rec_;
  double begin_us_ = 0.0;
  double offset_us_ = 0.0;  ///< Span time minus recorder time.
};

/// Start and end of the public call inside one timed op.
struct CallTimes {
  Clock::time_point t0, t1;
};

/// Closed loop with one caller: `call(k, times)` runs op k, fills `times`
/// (null during warm-up) and returns false when its output differs from
/// the reference.  Warm-up ops run first, untimed.
template <class Call>
LoopResult closed_loop(double seconds, std::size_t warmup, std::size_t min_ops,
                       std::size_t per_op_items, Call&& call) {
  for (std::size_t k = 0; k < warmup; ++k) call(k, static_cast<CallTimes*>(nullptr));
  LoopResult out;
  double busy_ms = 0.0;
  const Clock::time_point start = Clock::now();
  Clock::time_point prev_end = start;
  for (std::size_t k = 0;
       k < min_ops || ms_between(start, Clock::now()) < seconds * 1e3; ++k) {
    CallTimes times;
    const Clock::time_point begin = Clock::now();
    const bool ok = call(warmup + k, &times);
    ++out.attempted;
    if (!ok) {
      ++out.failed;
      ++out.wrong;
    }
    const double ms = ms_between(times.t0, times.t1);
    out.latency_ms.push_back(ms);
    out.gen_lag_ms.push_back(ms_between(prev_end, begin));
    busy_ms += ms;
    prev_end = Clock::now();
  }
  out.mean_op_ms = busy_ms / static_cast<double>(out.attempted);
  out.throughput_per_s = static_cast<double>(out.attempted * per_op_items) /
                         (busy_ms / 1e3);
  return out;
}

// --- dense-square ----------------------------------------------------------

class DenseSquare final : public Workload {
 public:
  explicit DenseSquare(const Config& cfg) : cfg_(cfg), refs_(0) {
    const std::size_t n = cfg.tiny ? 24 : 256;
    const std::size_t pool = cfg.tiny ? 3 : 16;
    hjsvd::Rng rng(cfg.seed);
    for (std::size_t i = 0; i < pool; ++i)
      inputs_.push_back({hjsvd::random_gaussian(n, n, rng), uv_options()});
    refs_ = References(pool);
  }

  double setup() override {
    const Clock::time_point t0 = Clock::now();
    hjsvd::svd(inputs_[0].a, inputs_[0].options);
    return ms_between(t0, Clock::now()) / 1e3;
  }

  LoopResult run(double seconds, Spans* spans) override {
    return closed_loop(seconds, 1, 3, 1, [&](std::size_t k, CallTimes* times) {
      const std::size_t i = k % inputs_.size();
      SvdOptions opts = inputs_[i].options;
      OpTrace trace(times != nullptr ? spans : nullptr, opts);
      const Clock::time_point t0 = Clock::now();
      SvdResult r = hjsvd::svd(inputs_[i].a, opts);
      const Clock::time_point t1 = Clock::now();
      if (times != nullptr) *times = {t0, t1};
      trace.finish("api.svd", t0, t1, k);
      return refs_.record(i, std::move(r));
    });
  }

  void check(Checks& c) override {
    if (cfg_.corrupt && refs_.ref(0) != nullptr) corrupt_output(*refs_.ref(0));
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      SvdResult* ref = refs_.ref(i);
      if (ref == nullptr) continue;
      if (!check_accuracy(inputs_[i].a, *ref, c, "dense-square input " + std::to_string(i)))
        c.ops_failed += refs_.ops(i);
    }
  }

  const std::vector<Input>& inputs() const override { return inputs_; }
  const char* entry_layer() const override { return "api"; }

 private:
  Config cfg_;
  std::vector<Input> inputs_;
  References refs_;
};

// --- batch-mixed -----------------------------------------------------------

class BatchMixed final : public Workload {
 public:
  explicit BatchMixed(const Config& cfg) : cfg_(cfg), refs_(0) {
    // The shape mix is fixed and evenly spread over its ranges, so every
    // seed does the same work; the seed picks the entries and the order.
    const bool t = cfg.tiny;
    std::vector<std::pair<std::size_t, std::size_t>> shapes;
    // Tall-skinny items (Gram formation and U recovery dominate) ...
    const auto tall_m = t ? spread(96, 128, 2) : spread(2048, 3072, 4);
    const auto tall_n = t ? spread(8, 12, 2) : spread(48, 64, 4);
    for (std::size_t i = 0; i < tall_m.size(); ++i) shapes.push_back({tall_m[i], tall_n[i]});
    // ... small squares that give the pool work to steal ...
    for (std::size_t n : t ? spread(6, 16, 6) : spread(32, 112, 24)) shapes.push_back({n, n});
    // ... and one dominant square whose estimated cost (m n^2 + n^3, the
    // scheduler's model) is at least a third of the rest, i.e. at least
    // 0.25 of the batch, so the nested-split path runs.
    double others = 0.0;
    for (const auto& [m, n] : shapes) others += double(m) * n * n + double(n) * n * n;
    const auto dom = static_cast<std::size_t>(std::ceil(std::cbrt(others / 6.0))) + 8;
    shapes.push_back({dom, dom});
    hjsvd::Rng rng(cfg.seed);
    shuffle(shapes, rng);
    for (const auto& [m, n] : shapes) batch_.push_back(hjsvd::random_gaussian(m, n, rng));
    for (const Matrix& a : batch_) inputs_.push_back({a, uv_options()});
    refs_ = References(batch_.size());
  }

  double setup() override {
    const Clock::time_point t0 = Clock::now();
    hjsvd::svd_batch(batch_, uv_options(), cfg_.threads);
    return ms_between(t0, Clock::now()) / 1e3;
  }

  LoopResult run(double seconds, Spans* spans) override {
    return closed_loop(seconds, 1, 3, batch_.size(), [&](std::size_t k, CallTimes* times) {
      SvdOptions opts = uv_options();
      OpTrace trace(times != nullptr ? spans : nullptr, opts);
      const Clock::time_point t0 = Clock::now();
      std::vector<SvdResult> r = hjsvd::svd_batch(batch_, opts, cfg_.threads);
      const Clock::time_point t1 = Clock::now();
      if (times != nullptr) *times = {t0, t1};
      trace.finish("api.svd_batch", t0, t1, k);
      bool ok = true;
      for (std::size_t i = 0; i < r.size(); ++i) ok &= refs_.record(i, std::move(r[i]));
      return ok;
    });
  }

  void check(Checks& c) override {
    if (cfg_.corrupt && refs_.ref(0) != nullptr) corrupt_output(*refs_.ref(0));
    bool all_ok = true;
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      SvdResult* ref = refs_.ref(i);
      if (ref == nullptr) continue;
      const std::string label = "batch-mixed item " + std::to_string(i);
      const SvdResult offline = hjsvd::svd(batch_[i], uv_options());
      all_ok &= c.expect(same_bits(*ref, offline), label + ": bitwise equal to offline svd()");
      all_ok &= check_accuracy(batch_[i], *ref, c, label);
    }
    // One bad item fails every svd_batch call that returned it.
    if (!all_ok) c.ops_failed += refs_.ops(0);
  }

  const std::vector<Input>& inputs() const override { return inputs_; }
  const char* entry_layer() const override { return "api"; }

 private:
  Config cfg_;
  std::vector<Matrix> batch_;
  std::vector<Input> inputs_;
  References refs_;
};

// --- serve-small -----------------------------------------------------------

class ServeSmall final : public Workload {
 public:
  // The open-loop rate is about 35% of the saturated throughput on a
  // 4-core host (see README.md); the tiny frames' rate keeps the smoke test
  // short.
  explicit ServeSmall(const Config& cfg) : cfg_(cfg), open_rate_per_s_(cfg.tiny ? 200 : 250) {
    // A quarter each of {32x24, 64x48} x {V, sigma only}, in seeded order.
    const std::size_t count = cfg.tiny ? 16 : 128;
    std::vector<int> kinds(count);
    for (std::size_t k = 0; k < count; ++k) kinds[k] = static_cast<int>(k % 4);
    hjsvd::Rng rng(cfg.seed);
    shuffle(kinds, rng);
    for (std::size_t k = 0; k < count; ++k) {
      const bool big = kinds[k] >= 2;
      const std::size_t m = cfg.tiny ? (big ? 12 : 8) : (big ? 64 : 32);
      const std::size_t n = cfg.tiny ? (big ? 9 : 6) : (big ? 48 : 24);
      SvdOptions o;
      o.compute_v = kinds[k] % 2 == 0;
      inputs_.push_back({hjsvd::random_gaussian(m, n, rng), o});
      frames_.push_back(make_frame("f", k, inputs_.back()));
    }
    // Expected payloads: parse each frame as the server does, offline svd()
    // with the frame's own options, and the same reply writer.
    for (const std::string& f : frames_) {
      const hjsvd::serve::Request req = hjsvd::serve::parse_request(f);
      offline_.push_back(hjsvd::svd(hjsvd::serve::request_matrix(req),
                                    hjsvd::serve::request_options(req)));
      expected_.push_back(payload_of(hjsvd::serve::format_ok_reply(req, offline_.back(), 0.0)));
    }
  }

  static hjsvd::serve::ServerConfig server_config() {
    hjsvd::serve::ServerConfig sc;
    sc.threads = 2;  // wave_max and queue_capacity stay at their defaults
    return sc;
  }

  double setup() override {
    const Clock::time_point t0 = Clock::now();
    // The first, cold operation of a batching server is its first wave.  The
    // dispatch hold (lifted by the drain at the end of saturated()) makes it
    // one full wave, not as many as the race between the sends and the
    // dispatcher happens to cut.
    hjsvd::serve::ServerConfig sc = server_config();
    sc.hold_dispatch = true;
    const std::size_t wave = std::min(sc.wave_max, frames_.size());
    ServeClient client(frames_, expected_, sc, nullptr);
    client.saturated(0.0, wave, wave);
    return ms_between(t0, Clock::now()) / 1e3;
  }

  LoopResult run(double seconds, Spans* spans) override {
    ServeClient client(frames_, expected_, server_config(), spans);
    // Bounded by the admission queue, and by half the frame pool: a frame
    // is resent only after its previous copy replied (ids stay unique).
    const std::size_t capacity =
        std::min(server_config().queue_capacity, frames_.size() / 2);
    client.saturated(0.0, frames_.size(), capacity);  // warm-up, untimed
    const std::uint64_t alloc0 = client.workspace_alloc_total();
    const std::size_t first = client.requests_sent();
    if (cfg_.corrupt) client.corrupt_request(first);

    // The gated metrics come from the saturated phase: 64 callers that each
    // resend once answered.  The open-loop phase at a fixed rate reports
    // per-layer figures only; its latency drifts with the host by more
    // than any bound allows.
    const ServeClient::Phase sat = client.saturated(0.6 * seconds, 1, capacity);
    const std::size_t first_open = client.requests_sent();
    const ServeClient::Phase open = client.open_loop(0.4 * seconds, open_rate_per_s_);

    LoopResult out;
    out.attempted = sat.attempted + open.attempted;
    out.failed = sat.failed + open.failed;
    out.wrong = sat.wrong + open.wrong;
    out.throughput_per_s = sat.rate_per_s;
    out.latency_ms = sat.latency_ms;
    out.gen_lag_ms = open.gen_lag_ms;
    out.mean_op_ms = mean(sat.latency_ms);
    const std::string n_open = "n=" + std::to_string(open.latency_ms.size()) + " at " +
                               std::to_string(static_cast<int>(open_rate_per_s_)) + "/s";
    out.layer.push_back({"serve.open_p50_ms", "ms", quantile(open.latency_ms, 0.50), n_open});
    out.layer.push_back({"serve.open_p99_ms", "ms", quantile(open.latency_ms, 0.99), n_open});
    const auto per_frame = client.requests_per_frame(first);
    ops_per_frame_.resize(per_frame.size(), 0);
    for (std::size_t k = 0; k < per_frame.size(); ++k) ops_per_frame_[k] += per_frame[k];
    out.layer.push_back({"api.workspace_alloc_warm", "count",
                         static_cast<double>(client.workspace_alloc_total() - alloc0),
                         "timed phases"});
    if (spans != nullptr)
      // The span trees explain the open-loop latencies.
      for (Metric& m : client.trace_metrics(first_open)) out.layer.push_back(std::move(m));
    return out;
  }

  void check(Checks& c) override {
    // Replies were compared with the offline payloads as they arrived; here
    // the offline results behind those payloads (sigma, and V where the
    // frame asks for it) meet the accuracy limits.
    for (std::size_t k = 0; k < inputs_.size(); ++k) {
      if (!check_accuracy(inputs_[k].a, offline_[k], c, "serve-small frame " + std::to_string(k)) &&
          k < ops_per_frame_.size())
        c.ops_failed += ops_per_frame_[k];
    }
  }

  const std::vector<Input>& inputs() const override { return inputs_; }
  const char* entry_layer() const override { return "serve"; }

 private:
  Config cfg_;
  double open_rate_per_s_;
  std::vector<Input> inputs_;
  std::vector<std::string> frames_;
  std::vector<SvdResult> offline_;  ///< svd() of each parsed frame, its options.
  std::vector<std::string> expected_;
  std::vector<std::uint64_t> ops_per_frame_;  ///< Timed requests per frame.
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Config& cfg) {
  if (cfg.workload == "dense-square") return std::make_unique<DenseSquare>(cfg);
  if (cfg.workload == "batch-mixed") return std::make_unique<BatchMixed>(cfg);
  if (cfg.workload == "serve-small") return std::make_unique<ServeSmall>(cfg);
  return nullptr;
}

}  // namespace perfbench
