#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>

namespace perfbench {

double Spans::now_us() const { return us(std::chrono::steady_clock::now()); }

double Spans::us(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

int Spans::add(std::string name, double start_us, double end_us, int parent,
               std::uint64_t op) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      SpanRecord{std::move(name), start_us, std::max(start_us, end_us), parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<SpanRecord> Spans::all() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Spans::write_json(const std::string& path) const {
  const std::vector<SpanRecord> spans = all();
  std::ofstream os(path);
  os << std::setprecision(15) << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_us\":"
       << s.start_us << ",\"end_us\":" << s.end_us << ",\"parent\":" << s.parent
       << ",\"op\":" << s.op << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

std::string layer_of(const std::string& name) {
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? std::string() : name.substr(0, dot);
}

Budget attribute(const std::vector<SpanRecord>& spans) {
  // Group span indices by operation.
  std::map<std::uint64_t, std::vector<int>> by_op;
  for (std::size_t i = 0; i < spans.size(); ++i)
    by_op[spans[i].op].push_back(static_cast<int>(i));

  const auto depth = [&](int i) {
    int d = 0;
    for (int p = spans[i].parent; p >= 0; p = spans[p].parent) ++d;
    return d;
  };

  Budget b;
  for (const auto& [op, members] : by_op) {
    (void)op;
    int root = -1;
    for (int i : members)
      if (spans[i].parent < 0) root = i;
    if (root < 0) continue;
    const SpanRecord& r = spans[root];
    ++b.ops;
    b.root_ms += (r.end_us - r.start_us) / 1000.0;

    std::vector<double> cuts;
    std::vector<int> depths(spans.size(), 0);
    for (int i : members) {
      cuts.push_back(std::clamp(spans[i].start_us, r.start_us, r.end_us));
      cuts.push_back(std::clamp(spans[i].end_us, r.start_us, r.end_us));
      depths[i] = depth(i);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
      const double lo = cuts[k], hi = cuts[k + 1];
      int owner = root;
      for (int i : members)
        if (spans[i].start_us <= lo && spans[i].end_us >= hi &&
            depths[i] > depths[owner])
          owner = i;
      const double ms = (hi - lo) / 1000.0;
      if (owner == root) {
        b.unaccounted_ms += ms;
      } else {
        b.by_name_ms[spans[owner].name] += ms;
        b.by_layer_ms[layer_of(spans[owner].name)] += ms;
      }
    }
  }
  return b;
}

}  // namespace perfbench
