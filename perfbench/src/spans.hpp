// In-memory span store of the traced run.
//
// Each span records its name, start, end, the span that caused it (parent
// index, -1 for an operation's root) and the operation id every span of one
// operation shares.  The benchmark places spans around its own calls into
// each layer and converts the spans the library's sinks already emit
// (svd gram/sweep/finalize, svd_batch items, serve waves) into children.
// Span names carry their layer as the prefix before the first '.': "svd.gram"
// is in layer svd; a root named "op" belongs to no layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  std::uint64_t op = 0;
};

class Spans {
 public:
  Spans() : epoch_(std::chrono::steady_clock::now()) {}

  /// Microseconds since construction on the steady clock.
  double now_us() const;
  double us(std::chrono::steady_clock::time_point t) const;

  /// Thread-safe append; returns the new span's index (a parent handle).
  int add(std::string name, double start_us, double end_us, int parent,
          std::uint64_t op);

  std::vector<SpanRecord> all() const;

  /// Writes every span as a JSON array (one object per line).
  void write_json(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<SpanRecord> spans_;
};

/// Time attribution over every operation: each instant of a root span goes
/// to the deepest span covering it, so per operation the parts add up to the
/// root's duration exactly.  The root's own share is time no layer accounts
/// for.
struct Budget {
  std::uint64_t ops = 0;
  double root_ms = 0.0;                       ///< Sum of root durations.
  double unaccounted_ms = 0.0;                ///< Root self time.
  std::map<std::string, double> by_name_ms;   ///< Self time per span name.
  std::map<std::string, double> by_layer_ms;  ///< Self time per layer.
};

Budget attribute(const std::vector<SpanRecord>& spans);

/// Layer of a span name: the prefix before the first '.', or "" for none.
std::string layer_of(const std::string& name);

}  // namespace perfbench
