// Live-telemetry metric registry (sim-schedstats).
//
// The registry names three metric kinds:
//
//  * counters — monotonically increasing uint64 cells owned by the code that
//    bumps them (a `SchedStats` field, a lock table's acquisition count) and
//    registered here by address. The hot path is a plain `++field`; the
//    registry only reads the cells at snapshot time.
//  * gauges — instantaneous int64 values read through a callback at snapshot
//    time (live tasks, online cores). Never on the hot path.
//  * histograms — pointers to externally owned `Histogram`s (wakeup latency);
//    the registry only snapshots their quantiles at export time.
//
// Registration happens once, at kernel construction, and the registration
// order is the export order — snapshots of the same simulation are therefore
// byte-identical.
//
// Name lifetime: the registry keeps every name as a `std::string_view` and
// copies none of them, so a name must have static storage duration (a string
// literal, or an entry of a constant table). Registering a kernel's ~60
// metrics then allocates nothing per name.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace eo {
class Histogram;
}

namespace eo::obs {

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Every `name` below must have static storage duration (see "Name
  // lifetime" above) and be unique across the registry.

  /// Registers a counter cell (e.g. a SchedStats field). The cell must
  /// outlive the registry's snapshots.
  void register_counter(std::string_view name, const std::uint64_t* cell);

  /// Registers a gauge; `read` is invoked at snapshot time.
  void register_gauge(std::string_view name,
                      std::function<std::int64_t()> read);

  /// Registers an externally owned histogram, snapshot at export time.
  void register_histogram(std::string_view name, const Histogram* hist);

  std::size_t n_counters() const { return counters_.size(); }
  std::size_t n_gauges() const { return gauges_.size(); }
  bool has(std::string_view name) const;

  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    std::int64_t value = 0;
  };
  struct HistogramRef {
    std::string_view name;
    const Histogram* hist = nullptr;
  };

  /// Counter names and current values, in registration order.
  std::vector<CounterValue> snapshot_counters() const;
  /// Values only, in registration order, written into a caller-owned buffer
  /// (resized to n_counters()). The per-frame watchdog path: once the buffer
  /// has warmed to size, no allocation and no string copies.
  void counter_values(std::vector<std::uint64_t>* out) const;
  /// Name of the i-th registered counter, in registration order.
  std::string_view counter_name(std::size_t i) const {
    return counters_[i].name;
  }
  /// Gauge names and current values, in registration order.
  std::vector<GaugeValue> snapshot_gauges() const;
  const std::vector<HistogramRef>& histograms() const { return histograms_; }

 private:
  struct CounterEntry {
    std::string_view name;
    const std::uint64_t* cell = nullptr;
  };
  struct GaugeEntry {
    std::string_view name;
    std::function<std::int64_t()> read;
  };

  void check_new_name(std::string_view name) const;

  std::vector<CounterEntry> counters_;
  std::vector<GaugeEntry> gauges_;
  std::vector<HistogramRef> histograms_;
};

}  // namespace eo::obs
