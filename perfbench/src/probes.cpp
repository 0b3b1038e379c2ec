// Layer probes of the traced run.  Each times one layer's public functions
// from outside, on the workload's own inputs:
//   linalg  rotate_pair at the inputs' column lengths; gram_upper_ops_into
//   svd     one traced svd() per input (gram / sweep / finalize spans and
//           rotation counters), plus the 255 vs 256 stride probe
//   api     svd_batch() over the inputs with SvdBatchStats; EngineInstance
//           workspace reuse once warm
//   serve   parse_request + request_matrix and format_ok_reply on the
//           inputs' frames; a traced in-process server pass over them
#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "api/engine.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "fp/ops.hpp"
#include "linalg/generate.hpp"
#include "linalg/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"
#include "serve_client.hpp"
#include "svd/hestenes_impl.hpp"

namespace perfbench {
namespace {

using hjsvd::Matrix;
using hjsvd::SvdOptions;
using hjsvd::SvdResult;

double cost(const Matrix& a) {
  const double m = static_cast<double>(a.rows()), n = static_cast<double>(a.cols());
  return m * n * n + n * n * n;
}

/// Runs `fn` repeatedly until at least `min_ms` have passed; mean ms per run.
template <class Fn>
double time_per_call_ms(double min_ms, Fn&& fn) {
  std::size_t reps = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++reps;
    elapsed = ms_between(t0, Clock::now());
  } while (elapsed < min_ms);
  return elapsed / static_cast<double>(reps);
}

struct SvdProbe {
  double wall_ms = 0, gram_ms = 0, sweeps_ms = 0, finalize_ms = 0;
  double sweeps = 0, pairs = 0, rotations = 0;
  SvdResult result;
};

/// One svd() with trace and metrics sinks attached.
SvdProbe traced_svd(const Matrix& a, SvdOptions opts) {
  hjsvd::obs::TraceRecorder rec;
  hjsvd::obs::MetricsRegistry reg;
  opts.trace = &rec;
  opts.metrics = &reg;
  SvdProbe p;
  const Clock::time_point t0 = Clock::now();
  p.result = hjsvd::svd(a, opts);
  p.wall_ms = ms_between(t0, Clock::now());
  for (const auto& e : rec.snapshot()) {
    if (e.ph != 'X') continue;
    if (e.name == "gram") p.gram_ms += e.dur_us / 1e3;
    if (e.name == "sweep") p.sweeps_ms += e.dur_us / 1e3;
    if (e.name == "finalize") p.finalize_ms += e.dur_us / 1e3;
  }
  p.sweeps = static_cast<double>(p.result.sweeps);
  p.rotations = static_cast<double>(reg.counter("svd.rotations_applied").value_or(0));
  p.pairs = p.rotations + static_cast<double>(reg.counter("svd.rotations_skipped").value_or(0));
  return p;
}

double ns_per_pair(const SvdProbe& p) {
  return p.pairs > 0 ? p.sweeps_ms * 1e6 / p.pairs : 0.0;
}

std::vector<Metric> linalg_probe(const std::vector<const Input*>& inputs,
                                 double min_ms) {
  // rotate_pair at each column length n, weighted by the n(n-1)/2 pairs a
  // sweep over that input rotates.
  std::map<std::size_t, double> weight;
  for (const Input* in : inputs) {
    const double n = static_cast<double>(in->a.cols());
    weight[in->a.cols()] += n * (n - 1) / 2;
  }
  double ns = 0.0, wsum = 0.0;
  for (const auto& [n, w] : weight) {
    std::vector<double> x(n), y(n);
    hjsvd::Rng rng(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.gaussian();
      y[i] = rng.gaussian();
    }
    const double c = std::cos(0.3), s = std::sin(0.3);
    const double ms = time_per_call_ms(min_ms, [&] {
      for (int r = 0; r < 64; ++r) hjsvd::rotate_pair(x, y, c, s);
    });
    ns += w * ms * 1e6 / 64;
    wsum += w;
  }

  // Gram formation: flops and bytes computed from the shapes (2 flops per
  // row per upper-triangle entry; both columns read once per entry, no
  // cache reuse assumed).
  double flops = 0.0, bytes = 0.0, gram_ms = 0.0;
  for (const Input* in : inputs) {
    const double m = static_cast<double>(in->a.rows());
    const double n = static_cast<double>(in->a.cols());
    Matrix d(in->a.cols(), in->a.cols());
    gram_ms += time_per_call_ms(min_ms / static_cast<double>(inputs.size()), [&] {
      hjsvd::gram_upper_ops_into(d, in->a, hjsvd::fp::NativeOps{}, 1);
    });
    flops += m * n * (n + 1);
    bytes += 8.0 * (2 * m + 1) * n * (n + 1) / 2;
  }
  const double k = static_cast<double>(inputs.size());
  return {
      {"linalg.rotate_pair_ns", "ns", ns / wsum, "pair-weighted over column lengths"},
      {"linalg.gram_gflops", "GFLOP/s", flops / (gram_ms * 1e6), "flops computed"},
      {"linalg.gram_flops_computed", "flop", flops / k, "per input, computed"},
      {"linalg.gram_bytes_computed", "B", bytes / k, "per input, computed, no reuse"},
  };
}

}  // namespace

Metric stride_probe(const Config& cfg) {
  // The same engine at n = 255 and n = 256 (31 and 32 tiny), five
  // alternating pairs, the fastest per size.
  const std::size_t pow2 = cfg.tiny ? 32 : 256;
  hjsvd::Rng rng(cfg.seed + 255);
  SvdOptions uv;
  uv.compute_u = uv.compute_v = true;
  const Matrix odd_a = hjsvd::random_gaussian(pow2 - 1, pow2 - 1, rng);
  const Matrix even_a = hjsvd::random_gaussian(pow2, pow2, rng);
  std::vector<double> odd_ns, even_ns;
  for (int rep = 0; rep < 5; ++rep) {
    odd_ns.push_back(ns_per_pair(traced_svd(odd_a, uv)));
    even_ns.push_back(ns_per_pair(traced_svd(even_a, uv)));
  }
  const double even = *std::min_element(even_ns.begin(), even_ns.end());
  const double odd = *std::min_element(odd_ns.begin(), odd_ns.end());
  return {"svd.ns_per_pair_pow2_ratio", "ratio", even / odd,
          std::to_string(static_cast<int>(even)) + " ns at n=" + std::to_string(pow2) +
              " over " + std::to_string(static_cast<int>(odd)) + " ns at n=" +
              std::to_string(pow2 - 1) + ", fastest of 5 each"};
}

std::vector<Metric> layer_probes(const Config& cfg,
                                 const std::vector<Input>& all_inputs,
                                 const std::set<std::string>& skip) {
  // Probe inputs: in order, until their estimated cost reaches four dense
  // 256 x 256 decompositions (every input of the smaller workloads).
  std::vector<const Input*> inputs;
  double budget = 4 * 2 * std::pow(cfg.tiny ? 24.0 : 256.0, 3);
  for (const Input& in : all_inputs) {
    if (!inputs.empty() && budget <= 0) break;
    inputs.push_back(&in);
    budget -= cost(in.a);
  }
  const double min_ms = cfg.tiny ? 2.0 : 20.0;
  std::vector<Metric> out = linalg_probe(inputs, min_ms);

  // --- svd: engine phases and rotation counts -------------------------------
  std::vector<SvdProbe> probes;
  SvdProbe sum;
  for (const Input* in : inputs) {
    probes.push_back(traced_svd(in->a, in->options));
    const SvdProbe& p = probes.back();
    sum.wall_ms += p.wall_ms;
    sum.gram_ms += p.gram_ms;
    sum.sweeps_ms += p.sweeps_ms;
    sum.finalize_ms += p.finalize_ms;
    sum.sweeps += p.sweeps;
    sum.pairs += p.pairs;
    sum.rotations += p.rotations;
  }
  const double k = static_cast<double>(inputs.size());
  const std::string per = "mean over " + std::to_string(inputs.size()) + " inputs";
  out.insert(out.end(), {
      {"svd.gram_ms", "ms", sum.gram_ms / k, per},
      {"svd.sweeps_ms", "ms", sum.sweeps_ms / k, per},
      {"svd.finalize_ms", "ms", sum.finalize_ms / k, per},
      {"svd.sweeps", "count", sum.sweeps / k, per},
      {"svd.pairs", "count", sum.pairs / k, per},
      {"svd.rotations", "count", sum.rotations / k, per},
      {"svd.useful_rotation_frac", "ratio", sum.rotations / sum.pairs, "rotations/pairs"},
      {"svd.ns_per_pair", "ns", ns_per_pair(sum), "sweeps_ms/pairs"},
      {"svd.phase_unaccounted_frac", "ratio",
       1.0 - (sum.gram_ms + sum.sweeps_ms + sum.finalize_ms) / sum.wall_ms,
       "1 - phases/wall of svd()"},
  });

  // --- api: svd_batch over the inputs, one call per option group ---------
  std::map<std::pair<bool, bool>, std::vector<Matrix>> groups;  // (U, V) flags
  for (const Input* in : inputs)
    groups[{in->options.compute_u, in->options.compute_v}].push_back(in->a);
  const auto options_of = [](std::pair<bool, bool> flags) {
    SvdOptions o;
    o.compute_u = flags.first;
    o.compute_v = flags.second;
    return o;
  };
  double wall = 0, busy = 0, capacity = 0, steals = 0, splits = 0, helpers = 0,
         failed = 0, calls = 0;
  for (int rep = 0; rep < 2; ++rep)
    for (const auto& [flags, batch] : groups) {
      hjsvd::SvdBatchStats st;
      hjsvd::svd_batch(batch, options_of(flags), cfg.threads, &st);
      wall += st.wall_s * 1e3;
      for (double b : st.worker_busy_s) busy += b;
      capacity += static_cast<double>(st.workers) * st.wall_s;
      steals += static_cast<double>(st.steals);
      splits += static_cast<double>(st.nested_splits);
      helpers += static_cast<double>(st.helpers_granted);
      failed += static_cast<double>(st.items_failed);
      ++calls;
    }
  const std::string per_call = "mean over " + std::to_string(static_cast<int>(calls)) +
                               " svd_batch calls of the probe inputs";
  out.insert(out.end(), {
      {"api.batch_wall_ms", "ms", wall / calls, per_call},
      {"api.worker_busy_frac", "ratio", busy / capacity, "sum busy/(workers*wall)"},
      {"api.steals", "count", steals / calls, per_call},
      {"api.nested_splits", "count", splits / calls, per_call},
      {"api.helpers_granted", "count", helpers / calls, per_call},
      {"api.items_failed", "count", failed / calls, per_call},
  });
  if (!skip.count("api.workspace_alloc_warm")) {
    hjsvd::EngineInstance engine(hjsvd::EngineConfig{.threads = cfg.threads});
    const auto wave = [&] {
      for (const auto& [flags, batch] : groups) engine.decompose_batch(batch, options_of(flags));
    };
    wave();
    const std::uint64_t alloc0 = engine.workspace_alloc_total();
    wave();
    wave();
    out.push_back({"api.workspace_alloc_warm", "count",
                   static_cast<double>(engine.workspace_alloc_total() - alloc0),
                   "EngineInstance, two warm waves"});
  }

  // --- serve: codec cost on the inputs' frames ----------------------------
  std::vector<std::string> frames, expected;
  double decode_us = 0, encode_us = 0, req_bytes = 0, reply_bytes = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    frames.push_back(make_frame("p", i, *inputs[i]));
    const std::string& f = frames.back();
    hjsvd::serve::Request req;
    decode_us += 1e3 * time_per_call_ms(min_ms / k, [&] {
      req = hjsvd::serve::parse_request(f);
      const Matrix a = hjsvd::serve::request_matrix(req);
      (void)a;
    });
    std::string reply;
    encode_us += 1e3 * time_per_call_ms(min_ms / k, [&] {
      reply = hjsvd::serve::format_ok_reply(req, probes[i].result, 0.0);
    });
    req_bytes += static_cast<double>(f.size());
    reply_bytes += static_cast<double>(reply.size());
    expected.push_back(payload_of(reply));
  }
  const double compute_us = 1e3 * sum.wall_ms / k;
  out.insert(out.end(), {
      {"serve.decode_us", "us", decode_us / k, "parse_request+request_matrix, " + per},
      {"serve.encode_us", "us", encode_us / k, "format_ok_reply, " + per},
      {"serve.request_bytes", "B", req_bytes / k, per},
      {"serve.reply_bytes", "B", reply_bytes / k, per},
      {"serve.codec_share_frac", "ratio",
       (decode_us + encode_us) / k / ((decode_us + encode_us) / k + compute_us),
       "(decode+encode)/(decode+encode+svd())"},
  });
  if (!skip.count("serve.submit_us")) {
    Spans spans;
    hjsvd::serve::ServerConfig sc;
    sc.threads = 2;
    ServeClient client(frames, expected, sc, &spans);
    client.saturated(0.0, frames.size(), sc.queue_capacity);
    for (Metric& m : client.trace_metrics(0)) out.push_back(std::move(m));
  }
  return out;
}

}  // namespace perfbench
