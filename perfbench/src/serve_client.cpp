#include "serve_client.hpp"

#include <algorithm>
#include <map>
#include <thread>


namespace perfbench {
namespace {

/// `"id":"<value>"` out of a reply instant's args object.
std::string id_of(const std::string& args_json) {
  const std::string key = "\"id\":\"";
  const std::size_t at = args_json.find(key);
  if (at == std::string::npos) return {};
  const std::size_t from = at + key.size();
  return args_json.substr(from, args_json.find('"', from) - from);
}

/// Integer `"requests":N` out of a wave span's args object.
double requests_of(const std::string& args_json) {
  const std::string key = "\"requests\":";
  const std::size_t at = args_json.find(key);
  return at == std::string::npos ? 0.0
                                 : std::stod(args_json.substr(at + key.size()));
}

}  // namespace

ServeClient::ServeClient(const std::vector<std::string>& frames,
                         const std::vector<std::string>& expected,
                         const hjsvd::serve::ServerConfig& config,
                         Spans* spans)
    : frames_(frames), expected_(expected), spans_(spans) {
  hjsvd::serve::ServerConfig cfg = config;
  if (spans_ != nullptr) {
    recorder_ = std::make_unique<hjsvd::obs::TraceRecorder>();
    recorder_offset_us_ = spans_->now_us() - recorder_->now_us();
    cfg.trace = recorder_.get();
  }
  server_ = std::make_unique<hjsvd::serve::SvdServer>(cfg);
}

ServeClient::~ServeClient() { server_->stop(); }

std::uint64_t ServeClient::workspace_alloc_total() const {
  return server_->workspace_alloc_total();
}

std::vector<std::uint64_t> ServeClient::requests_per_frame(
    std::size_t from) const {
  std::vector<std::uint64_t> count(frames_.size(), 0);
  for (std::size_t i = from; i < requests_.size(); ++i) ++count[requests_[i].frame];
  return count;
}

void ServeClient::send(std::size_t frame, Clock::time_point due) {
  Request& req = requests_.emplace_back();
  req.frame = frame;
  req.seq = requests_.size() - 1;
  req.due = due;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++in_flight_;
  }
  req.sent = Clock::now();
  Request* r = &req;
  server_->submit_line(frames_[frame], [this, r](const std::string& reply) {
    r->replied = Clock::now();
    const std::string& want = expected_[r->frame];
    static const std::string tail = ",\"latency_ms\":";
    const bool ok = reply.size() > want.size() + tail.size() &&
              reply.compare(0, want.size(), want) == 0 &&
              reply.compare(want.size(), tail.size(), tail) == 0;
    r->ok = ok && r->seq != corrupt_seq_;
    // An ok reply whose payload differs is a wrong output; an error reply
    // (rejection, expiry) is a failed operation.
    r->wrong = !r->ok && reply.find("\"status\":\"ok\"") != std::string::npos;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
    }
    cv_.notify_all();
  });
  req.submitted = Clock::now();
}

ServeClient::Phase ServeClient::saturated(double seconds,
                                          std::size_t min_requests,
                                          std::size_t max_in_flight) {
  const std::size_t first = requests_.size();
  const Clock::time_point start = Clock::now();
  for (std::size_t k = 0;
       k < min_requests || ms_between(start, Clock::now()) < seconds * 1e3;
       ++k) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return in_flight_ < max_in_flight; });
    }
    const Clock::time_point now = Clock::now();
    send(next_frame_, now);
    next_frame_ = (next_frame_ + 1) % frames_.size();
  }
  server_->drain();
  return finish(first, false);
}

ServeClient::Phase ServeClient::open_loop(double seconds, double rate_per_s) {
  const std::size_t first = requests_.size();
  const auto count = static_cast<std::size_t>(seconds * rate_per_s);
  const Clock::time_point start = Clock::now();
  for (std::size_t k = 0; k < count; ++k) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(k / rate_per_s));
    std::this_thread::sleep_until(due);
    send(next_frame_, due);
    next_frame_ = (next_frame_ + 1) % frames_.size();
  }
  server_->drain();
  return finish(first, true);
}

ServeClient::Phase ServeClient::finish(std::size_t first, bool from_due) {
  Phase p;
  if (first == requests_.size()) return p;
  Clock::time_point last = requests_[first].sent;
  for (std::size_t i = first; i < requests_.size(); ++i) {
    const Request& r = requests_[i];
    ++p.attempted;
    last = std::max(last, r.replied);
    p.gen_lag_ms.push_back(ms_between(r.due, r.sent));
    if (!r.ok) {
      ++p.failed;
      if (r.wrong) ++p.wrong;
      continue;
    }
    ++p.ok;
    p.latency_ms.push_back(ms_between(from_due ? r.due : r.sent, r.replied));
  }
  p.wall_s = ms_between(requests_[first].sent, last) / 1e3;
  // Ok replies per whole second of the phase; the partial last second is
  // dropped.
  const auto seconds = static_cast<std::size_t>(p.wall_s);
  std::vector<double> per_second(seconds, 0.0);
  for (std::size_t i = first; i < requests_.size(); ++i) {
    const auto s = static_cast<std::size_t>(
        ms_between(requests_[first].sent, requests_[i].replied) / 1e3);
    if (requests_[i].ok && s < seconds) ++per_second[s];
  }
  p.rate_per_s = seconds > 0 ? quantile(per_second, 0.5)
                             : static_cast<double>(p.ok) / p.wall_s;
  return p;
}

std::vector<Metric> ServeClient::trace_metrics(std::size_t from) {
  server_->drain();
  struct Wave {
    double start_us, end_us, size;
  };
  std::vector<Wave> waves;
  std::map<std::string, std::deque<double>> replies;  // id -> instants
  for (const auto& e : recorder_->snapshot()) {
    if (e.name == "wave" && e.ph == 'X')
      waves.push_back({e.ts_us + recorder_offset_us_,
                       e.ts_us + e.dur_us + recorder_offset_us_,
                       requests_of(e.args_json)});
    if (e.name == "reply" && e.ph == 'i')
      replies[id_of(e.args_json)].push_back(e.ts_us + recorder_offset_us_);
  }
  std::sort(waves.begin(), waves.end(),
            [](const Wave& a, const Wave& b) { return a.start_us < b.start_us; });

  // Frame ids in submission order: the k-th ok reply instant of an id
  // belongs to the k-th ok request of that frame (a frame is never in
  // flight twice).
  std::map<std::size_t, std::string> frame_id;
  std::vector<double> submit_us, queue_ms;
  for (std::size_t i = 0; i < requests_.size(); ++i) {
    const Request& r = requests_[i];
    if (!r.ok) continue;
    auto fid = frame_id.find(r.frame);
    if (fid == frame_id.end()) {
      const std::string& f = frames_[r.frame];
      const std::size_t at = f.find("\"id\": \"") + 7;
      fid = frame_id.emplace(r.frame, f.substr(at, f.find('"', at) - at)).first;
    }
    auto& q = replies[fid->second];
    if (q.empty()) continue;
    const double reply_us = q.front();
    q.pop_front();
    if (i < from) continue;
    const auto w = std::upper_bound(
        waves.begin(), waves.end(), reply_us,
        [](double t, const Wave& wv) { return t < wv.start_us; });
    if (w == waves.begin()) continue;
    const double wave_start = std::prev(w)->start_us;

    const std::uint64_t op = 1'000'000'000ull + r.seq;  // apart from loop ops
    const double due = spans_->us(r.due), sent = spans_->us(r.sent),
                 submitted = spans_->us(r.submitted),
                 replied = spans_->us(r.replied);
    const int root = spans_->add("op", due, replied, -1, op);
    if (sent > due) spans_->add("bench.lag", due, sent, root, op);
    spans_->add("serve.submit", sent, submitted, root, op);
    spans_->add("serve.queue_wait", submitted, std::max(submitted, wave_start),
                root, op);
    // The request's share of its dispatch wave: the api decompose_batch
    // call plus the encoding of wave-mates replied before it.
    spans_->add("api.wave", std::max(submitted, wave_start), reply_us, root, op);
    spans_->add("serve.encode", reply_us, replied, root, op);
    submit_us.push_back(submitted - sent);
    queue_ms.push_back(std::max(0.0, wave_start - submitted) / 1e3);
  }

  // Attribute only this client's requests.
  std::vector<SpanRecord> own;
  for (const SpanRecord& s : spans_->all())
    if (s.op >= 1'000'000'000ull) own.push_back(s);
  const Budget b = attribute(own);

  std::vector<double> wave_ms, wave_size;
  for (const Wave& w : waves) {
    wave_ms.push_back((w.end_us - w.start_us) / 1e3);
    wave_size.push_back(w.size);
  }
  const std::string n = "n=" + std::to_string(submit_us.size()) + " requests";
  return {
      {"serve.submit_us", "us", mean(submit_us), n},
      {"serve.queue_wait_ms", "ms", mean(queue_ms), n},
      {"serve.wave_ms", "ms", mean(wave_ms),
       "n=" + std::to_string(waves.size()) + " waves"},
      {"serve.wave_size", "requests", mean(wave_size), ""},
      {"serve.waves", "count", static_cast<double>(waves.size()), ""},
      {"serve.unaccounted_frac", "ratio",
       b.root_ms > 0 ? b.unaccounted_ms / b.root_ms : 0.0, n},
  };
}

}  // namespace perfbench
