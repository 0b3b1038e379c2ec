// Metrics registry: named counters, gauges, histograms and series with
// explicit units, serialized to a versioned JSON schema.
//
// One registry instance collects everything a run produced — software
// engines and the accelerator simulator write into the same namespace, so
// e.g. the software engine's svd.rotations_applied and the simulator's
// FIFO bound (`sim.param_fifo.high_water_rotations`, unit "rotations") sit
// side by side in one file.  docs/OBSERVABILITY.md lists every metric name,
// its type, its unit, and whether its value is deterministic across thread
// counts.
//
// Serialized schema (version hjsvd.metrics.v1):
//   { "schema": "hjsvd.metrics.v1",
//     "metrics": [
//       {"name": "...", "type": "counter",   "unit": "...", "value": 123},
//       {"name": "...", "type": "gauge",     "unit": "...", "value": 1.5},
//       {"name": "...", "type": "histogram", "unit": "...", "count": 9,
//        "min": ..., "max": ..., "mean": ..., "p50": ..., "p90": ..., "p99": ...},
//       {"name": "...", "type": "series",    "unit": "...",
//        "points": [[index, value], ...]} ] }
// Metrics are emitted sorted by name, so serialization is deterministic for
// deterministic values.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hjsvd::obs {

/// Schema tag written into every serialized metrics document.
inline constexpr const char* kMetricsSchema = "hjsvd.metrics.v1";

/// Thread-safe (coarse mutex) metrics collector.  Designed for updates at
/// round/sweep granularity, not per-rotation hot loops.
class MetricsRegistry {
 public:
  /// Adds to a monotonic counter (integer-valued, e.g. rotations applied).
  void counter_add(std::string_view name, std::string_view unit,
                   std::uint64_t delta);

  /// Sets a gauge (last-write-wins snapshot value).
  void gauge_set(std::string_view name, std::string_view unit, double value);

  /// Records one sample into a histogram (summarized at serialization).
  void hist_record(std::string_view name, std::string_view unit,
                   double sample);

  /// Appends an (index, value) point to a series, e.g. per-sweep norms
  /// indexed by sweep number or occupancy indexed by round id.
  void series_append(std::string_view name, std::string_view unit,
                     double index, double value);

  // --- Inspection (tests, benches) ---------------------------------------
  std::optional<std::uint64_t> counter(std::string_view name) const;
  std::optional<double> gauge(std::string_view name) const;
  std::vector<std::pair<double, double>> series(std::string_view name) const;
  std::vector<std::string> names() const;
  std::optional<std::string> unit(std::string_view name) const;

  /// One scalar metric (counter or gauge) as sampled by scalar_snapshot().
  struct ScalarSample {
    std::string name;
    std::string unit;
    bool is_counter = false;  // false: gauge
    double value = 0.0;       // counters widen to double (exact < 2^53)
  };
  /// All counters and gauges under one lock, sorted by name — the sampling
  /// primitive of the live SnapshotExporter (src/obs/live.hpp).  Histograms
  /// and series are excluded: a periodic sampler wants scalars, not the
  /// full distribution payloads.
  std::vector<ScalarSample> scalar_snapshot() const;

  /// Serializes the hjsvd.metrics.v1 JSON document.
  void write(std::ostream& os) const;
  std::string to_json() const;

 private:
  enum class Type { kCounter, kGauge, kHistogram, kSeries };
  struct Metric {
    Type type = Type::kCounter;
    std::string unit;
    std::uint64_t count = 0;                         // counter
    double value = 0.0;                              // gauge
    std::vector<double> samples;                     // histogram
    std::vector<std::pair<double, double>> points;   // series
  };

  Metric& fetch(std::string_view name, Type type, std::string_view unit);

  mutable std::mutex mu_;
  std::map<std::string, Metric, std::less<>> metrics_;
};

}  // namespace hjsvd::obs
