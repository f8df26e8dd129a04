#pragma once
// Campaign diagnostics report: a plain-struct snapshot of everything the
// observability layer collected (per-stage timings, counters, gauges,
// histograms, per-class confusion tallies) with a JSON emitter for the
// bench `--diag <path>` flag.
//
// The report is *derived* data: building one reads the registry / tracer /
// confusion matrix and never feeds anything back into the pipeline, so a
// campaign's outputs are identical whether or not a report is produced.
// Doubles are printed with %.17g, which any conforming JSON reader (strtod,
// Python's json) turns back into the same IEEE double bit for bit.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "sca/report.hpp"

namespace reveal::obs {

struct DiagnosticsReport {
  struct StageRow {
    std::string stage;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t min_ns = 0;
    std::uint64_t max_ns = 0;
    friend bool operator==(const StageRow&, const StageRow&) = default;
  };
  struct CounterRow {
    std::string name;
    std::uint64_t value = 0;
    friend bool operator==(const CounterRow&, const CounterRow&) = default;
  };
  struct GaugeRow {
    std::string name;
    double value = 0.0;
    friend bool operator==(const GaugeRow&, const GaugeRow&) = default;
  };
  struct HistogramRow {
    std::string name;
    double lo = 0.0;
    double hi = 1.0;
    std::vector<std::uint64_t> counts;
    double sum = 0.0;
    friend bool operator==(const HistogramRow&, const HistogramRow&) = default;
  };
  struct ConfusionRow {
    std::int32_t truth = 0;
    std::int32_t predicted = 0;
    std::uint64_t count = 0;
    friend bool operator==(const ConfusionRow&, const ConfusionRow&) = default;
  };

  std::vector<StageRow> stages;        ///< pipeline-stage order
  std::vector<CounterRow> counters;    ///< name order
  std::vector<GaugeRow> gauges;        ///< name order
  std::vector<HistogramRow> histograms;  ///< name order
  std::vector<ConfusionRow> confusion;   ///< (truth, predicted) order
  std::uint64_t dropped_events = 0;    ///< tracer ring overwrites

  friend bool operator==(const DiagnosticsReport&, const DiagnosticsReport&) = default;

  /// Serializes the full report as a deterministic JSON document.
  [[nodiscard]] std::string to_json() const;
};

/// Assembles a report from the merged campaign accumulators. `tracer` and
/// `confusion` may be null (the corresponding sections stay empty).
[[nodiscard]] DiagnosticsReport make_report(const Registry& registry,
                                            const SpanTracer* tracer,
                                            const sca::ConfusionMatrix* confusion);

/// Writes the document `json` to `path`. Throws std::runtime_error when the
/// file cannot be opened, written in full or closed.
void write_json_file(const std::string& json, const std::string& path);

/// write_json_file(report.to_json(), path).
void write_json_file(const DiagnosticsReport& report, const std::string& path);

}  // namespace reveal::obs
