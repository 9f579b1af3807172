// Metrics exporters.
//
// A finished run snapshots into a `MetricsDoc` — registry values, the
// retained time series, and the watchdog verdict — which renders to:
//
//  * "json"   — the `eo-metrics` document (schema below), validated by
//               `validate_metrics_json` / the `json_check` tool. Contains
//               only simulation-derived values, so same-seed runs render
//               byte-identical documents.
//  * "csv"    — one row per (sample, core) plus one global row per sample,
//               for plotting scripts.
//  * "report" — a schedstat/sim-top-style text summary (per-core averages,
//               counters, histogram quantiles).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/taskstats.h"
#include "obs/watchdog.h"

namespace eo::obs {

inline constexpr const char* kMetricsSchemaName = "eo-metrics";
inline constexpr int kMetricsSchemaVersion = 1;

/// Snapshot of one histogram's shape at export time.
struct HistogramSummary {
  std::string name;
  std::uint64_t count = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  double mean = 0.0;
  std::int64_t p50 = 0;
  std::int64_t p95 = 0;
  std::int64_t p99 = 0;
  std::int64_t p999 = 0;
};

/// Everything a run's telemetry exports. Pure simulation state: no host
/// timestamps, no machine identity.
struct MetricsDoc {
  int n_cores = 0;
  SimDuration interval = 0;
  std::uint64_t ticks = 0;          ///< samples taken over the whole run
  std::uint64_t dropped_ticks = 0;  ///< frames overwritten in the ring
  std::vector<MetricRegistry::CounterValue> counters;
  std::vector<MetricRegistry::GaugeValue> gauges;
  std::vector<HistogramSummary> histograms;
  /// Retained frames, oldest first; `core_series` is frame-major with
  /// exactly `n_cores` entries per frame.
  std::vector<TickSample> tick_series;
  std::vector<CoreSample> core_series;
  std::uint64_t watchdog_checks = 0;
  std::uint64_t watchdog_violations = 0;
  std::vector<Violation> violation_records;
  /// Optional per-task delay accounting (`eo-taskstats` section); null when
  /// the run did not request taskstats export. Shared so fleet snapshots can
  /// reference a host's doc without copying every task record.
  std::shared_ptr<TaskstatsDoc> taskstats;
};

/// Builds the export-time summary of `hist` under `name` — the one
/// quantile-snapshot routine shared by the kernel snapshot and the fleet
/// aggregator, so every document derives summaries identically.
HistogramSummary summarize_histogram(std::string_view name,
                                     const Histogram& hist);

/// Renders per format ("json", "csv", or "report").
std::string render(const MetricsDoc& doc, const std::string& format);

/// Renders and writes; JSON output is validated before the write. Returns
/// false with a reason in `err` on failure.
bool export_to_file(const MetricsDoc& doc, const std::string& path,
                    const std::string& format, std::string* err);

/// Structural validation of an `eo-metrics` JSON document.
bool validate_metrics_json(const std::string& text, std::string* err);

// --- sections shared by `eo-metrics` and `eo-metrics-fleet` ----------------
// Each writes or checks the named field of the document object `w` / `root`.

/// "counters": [{name, value}].
void write_counters(json::Writer& w,
                    const std::vector<MetricRegistry::CounterValue>& counters);
/// "histograms": [{name, count, min, max, mean, p50, p95, p99, p999}].
void write_histograms(json::Writer& w,
                      const std::vector<HistogramSummary>& histograms);
/// "watchdog": {checks, violations, records: [{ts_ns, invariant, detail}]}.
void write_watchdog(json::Writer& w, std::uint64_t checks,
                    std::uint64_t violations,
                    const std::vector<Violation>& records);

bool validate_counters(const json::Value& root, std::string* err);
bool validate_histograms(const json::Value& root, std::string* err);
bool validate_watchdog(const json::Value& root, std::string* err);

}  // namespace eo::obs
