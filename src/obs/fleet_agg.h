// Fleet-scale metrics aggregation.
//
// A `ConnectionFleet` run produces one per-host `MetricsDoc` (plus the raw
// workload histograms) per simulated host. Before this layer existed only a
// single representative host's telemetry survived the run; `FleetAggregator`
// instead retains every host's snapshot and merges them into one versioned
// `eo-metrics-fleet` document:
//
//  * counters        — summed across hosts (uint64, exact);
//  * gauges          — min / mean / max across hosts (mean from an exact
//                      int64 sum, divided once);
//  * histograms      — the raw per-host `Histogram`s merged bucket-wise, so
//                      fleet quantiles come from the true merged
//                      distribution, not from averaged per-host quantiles;
//  * watchdog        — checks/violations summed; each recorded violation's
//                      invariant id gains a `host=<h> ` prefix so a failure
//                      in a 32-host parallel run is attributable without
//                      re-running sequentially;
//  * hosts           — a per-host breakdown table (completed/shed, latency
//                      and attribution p99s, mean rq depth, VB-park and
//                      BWD-skip rates) for imbalance analysis.
//
// Determinism contract: `finish()` sorts hosts by index and performs every
// floating-point reduction in that canonical order, so the document is a
// pure function of the per-host inputs — independent of `add_host` call
// order, and therefore byte-identical between `--jobs=1` and `--jobs=N`
// runs (the same property `serve_parallel_golden` pins for the bench
// results).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/units.h"
#include "obs/export.h"

namespace eo::obs {

inline constexpr const char* kFleetMetricsSchemaName = "eo-metrics-fleet";
inline constexpr int kFleetMetricsSchemaVersion = 1;

/// One gauge reduced across hosts.
struct FleetGaugeValue {
  std::string name;
  std::int64_t min = 0;
  std::int64_t max = 0;
  double mean = 0.0;
};

/// One row of the per-host breakdown table.
struct FleetHostEntry {
  int host = -1;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::int64_t p99_ns = 0;  ///< end-to-end request latency
  // Latency attribution (see ServeHost): where the p99 request's time went.
  std::int64_t queue_p99_ns = 0;
  std::int64_t service_p99_ns = 0;
  std::int64_t sched_delay_p99_ns = 0;
  /// Mean runqueue depth over the host's retained samples, all cores.
  double mean_rq_depth = 0.0;
  double vb_park_rate = 0.0;   ///< VB parks per simulated second
  double bwd_skip_rate = 0.0;  ///< BWD deschedules per simulated second
  std::uint64_t ticks = 0;
  std::uint64_t watchdog_violations = 0;
};

/// The merged fleet document. Like `MetricsDoc`, pure simulation state.
struct FleetMetricsDoc {
  int n_hosts = 0;
  int n_cores = 0;  ///< per host (hosts are homogeneous)
  SimDuration interval = 0;
  std::uint64_t ticks = 0;          ///< summed across hosts
  std::uint64_t dropped_ticks = 0;  ///< summed across hosts
  std::vector<MetricRegistry::CounterValue> counters;
  std::vector<FleetGaugeValue> gauges;
  std::vector<HistogramSummary> histograms;
  std::vector<FleetHostEntry> hosts;  ///< sorted by host index
  std::uint64_t watchdog_checks = 0;
  std::uint64_t watchdog_violations = 0;
  /// Host-tagged: each invariant id is prefixed with `host=<h> `.
  std::vector<Violation> violation_records;
};

/// One host's contribution, handed to `add_host` while the host kernel is
/// still alive. Only `doc` and the histogram pointers must stay valid for
/// the duration of the call — everything is copied.
struct FleetHostSample {
  int host = -1;
  /// The host's full metrics snapshot (required).
  const MetricsDoc* doc = nullptr;
  /// Raw histograms to merge fleet-wide (registry + workload histograms).
  /// Raw, not summaries: quantiles do not compose, bucket counts do.
  std::vector<std::pair<std::string, const Histogram*>> histograms;
  // Workload scalars for the breakdown table, supplied by the driver.
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::int64_t p99_ns = 0;
  std::int64_t queue_p99_ns = 0;
  std::int64_t service_p99_ns = 0;
  std::int64_t sched_delay_p99_ns = 0;
  double vb_park_rate = 0.0;
  double bwd_skip_rate = 0.0;
};

/// Accumulates per-host samples and merges them canonically. Hosts may be
/// added in any order; `finish()` always produces the same document for the
/// same set of hosts. Not thread-safe — callers feed it after the fan-out
/// barrier, in whatever order their buffers sit.
class FleetAggregator {
 public:
  /// Copies everything needed from `s` (the doc and histograms need not
  /// outlive the call). Host indices must be unique; all hosts must share
  /// n_cores / interval / counter+gauge registration order (they come from
  /// identically configured kernels).
  void add_host(const FleetHostSample& s);

  std::size_t n_hosts() const { return hosts_.size(); }

  /// Sorts by host index and performs the canonical merge. May be called
  /// repeatedly (it does not consume the accumulated state).
  FleetMetricsDoc finish() const;

 private:
  struct HostAccum {
    FleetHostEntry entry;
    int n_cores = 0;
    SimDuration interval = 0;
    std::uint64_t dropped_ticks = 0;
    std::vector<MetricRegistry::CounterValue> counters;
    std::vector<MetricRegistry::GaugeValue> gauges;
    std::vector<std::pair<std::string, Histogram>> histograms;
    std::uint64_t watchdog_checks = 0;
    std::vector<Violation> violations;
  };
  std::vector<HostAccum> hosts_;
};

/// Prefixes every recorded violation's invariant id with `host=<h> ` on a
/// copy of `doc`, for single-doc exports that sit alongside a fleet run.
MetricsDoc tag_host_violations(const MetricsDoc& doc, int host);

/// Renders the `eo-metrics-fleet` JSON document; "json" is the only format.
std::string render_fleet(const FleetMetricsDoc& doc, const std::string& format);

/// Renders, validates and writes the JSON document. Returns false with a
/// reason in `err` on failure.
bool export_fleet_to_file(const FleetMetricsDoc& doc, const std::string& path,
                          std::string* err);

/// Structural validation of an `eo-metrics-fleet` JSON document.
bool validate_fleet_metrics_json(const std::string& text, std::string* err);

}  // namespace eo::obs
