#include "obs/metrics.h"

#include "common/logging.h"

namespace eo::obs {

namespace {
/// Sink for unwired handles. Thread-local so kernels running concurrently on
/// different host threads never share (and race on) one cell.
thread_local std::uint64_t g_counter_sink = 0;
}  // namespace

Counter::Counter() : cell_(&g_counter_sink) {}

void MetricRegistry::check_new_name(std::string_view name) const {
  EO_CHECK(!name.empty()) << "empty metric name";
  EO_CHECK(!has(name)) << "duplicate metric name '" << name << "'";
}

bool MetricRegistry::has(std::string_view name) const {
  for (const auto& c : counters_) {
    if (c.name == name) return true;
  }
  for (const auto& g : gauges_) {
    if (g.name == name) return true;
  }
  for (const auto& h : histograms_) {
    if (h.name == name) return true;
  }
  return false;
}

Counter MetricRegistry::counter(std::string_view name) {
  check_new_name(name);
  owned_.push_back(0);
  counters_.push_back({name, &owned_.back()});
  return Counter(&owned_.back());
}

void MetricRegistry::register_counter(std::string_view name,
                                      const std::uint64_t* cell) {
  check_new_name(name);
  EO_CHECK(cell != nullptr);
  counters_.push_back({name, cell});
}

void MetricRegistry::register_gauge(std::string_view name,
                                    std::function<std::int64_t()> read) {
  check_new_name(name);
  EO_CHECK(read != nullptr);
  gauges_.push_back({name, std::move(read)});
}

void MetricRegistry::register_histogram(std::string_view name,
                                        const Histogram* hist) {
  check_new_name(name);
  EO_CHECK(hist != nullptr);
  histograms_.push_back({name, hist});
}

std::vector<MetricRegistry::CounterValue> MetricRegistry::snapshot_counters()
    const {
  std::vector<CounterValue> out;
  out.reserve(counters_.size());
  for (const auto& c : counters_) {
    out.push_back({std::string(c.name), *c.cell});
  }
  return out;
}

void MetricRegistry::counter_values(std::vector<std::uint64_t>* out) const {
  out->resize(counters_.size());
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    (*out)[i] = *counters_[i].cell;
  }
}

std::vector<MetricRegistry::GaugeValue> MetricRegistry::snapshot_gauges()
    const {
  std::vector<GaugeValue> out;
  out.reserve(gauges_.size());
  for (const auto& g : gauges_) {
    out.push_back({std::string(g.name), g.read()});
  }
  return out;
}

}  // namespace eo::obs
