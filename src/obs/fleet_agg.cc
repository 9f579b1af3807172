#include "obs/fleet_agg.h"

#include <algorithm>
#include <sstream>

#include "common/json.h"
#include "common/logging.h"

namespace eo::obs {

using json::fail;
using json::require_number;

namespace {

std::string host_prefixed(int host, const std::string& invariant) {
  return "host=" + std::to_string(host) + " " + invariant;
}

void render_fleet_json(const FleetMetricsDoc& doc, std::ostream& os) {
  json::Writer w(os);
  w.begin_object();
  w.field("schema", kFleetMetricsSchemaName);
  w.field("schema_version", kFleetMetricsSchemaVersion);
  w.field("n_hosts", doc.n_hosts);
  w.field("n_cores", doc.n_cores);
  w.field("interval_ns", static_cast<std::int64_t>(doc.interval));
  w.field("ticks", doc.ticks);
  w.field("dropped_ticks", doc.dropped_ticks);

  write_counters(w, doc.counters);

  w.key("gauges");
  w.begin_array();
  for (const auto& g : doc.gauges) {
    w.begin_object();
    w.field("name", g.name);
    w.field("min", g.min);
    w.field("mean", g.mean);
    w.field("max", g.max);
    w.end_object();
  }
  w.end_array();

  write_histograms(w, doc.histograms);

  w.key("hosts");
  w.begin_array();
  for (const auto& h : doc.hosts) {
    w.begin_object();
    w.field("host", h.host);
    w.field("issued", h.issued);
    w.field("completed", h.completed);
    w.field("shed", h.shed);
    w.field("p99_ns", h.p99_ns);
    w.field("queue_p99_ns", h.queue_p99_ns);
    w.field("service_p99_ns", h.service_p99_ns);
    w.field("sched_delay_p99_ns", h.sched_delay_p99_ns);
    w.field("mean_rq_depth", h.mean_rq_depth);
    w.field("vb_park_rate", h.vb_park_rate);
    w.field("bwd_skip_rate", h.bwd_skip_rate);
    w.field("ticks", h.ticks);
    w.field("watchdog_violations", h.watchdog_violations);
    w.end_object();
  }
  w.end_array();

  write_watchdog(w, doc.watchdog_checks, doc.watchdog_violations,
                 doc.violation_records);
  w.end_object();
  os << "\n";
}

}  // namespace

void FleetAggregator::add_host(const FleetHostSample& s) {
  EO_CHECK(s.doc != nullptr) << "fleet host sample without a MetricsDoc";
  EO_CHECK(s.host >= 0) << "fleet host sample without a host index";
  for (const auto& h : hosts_) {
    EO_CHECK(h.entry.host != s.host)
        << "duplicate fleet host index " << s.host;
  }

  HostAccum a;
  a.entry.host = s.host;
  a.entry.issued = s.issued;
  a.entry.completed = s.completed;
  a.entry.shed = s.shed;
  a.entry.p99_ns = s.p99_ns;
  a.entry.queue_p99_ns = s.queue_p99_ns;
  a.entry.service_p99_ns = s.service_p99_ns;
  a.entry.sched_delay_p99_ns = s.sched_delay_p99_ns;
  a.entry.vb_park_rate = s.vb_park_rate;
  a.entry.bwd_skip_rate = s.bwd_skip_rate;
  a.entry.ticks = s.doc->ticks;
  a.entry.watchdog_violations = s.doc->watchdog_violations;

  // Mean rq depth over everything the host retained: frames x cores.
  const std::size_t samples = s.doc->core_series.size();
  if (samples > 0) {
    // Integer sum first — exact, so the single division is order-free.
    std::int64_t rq_sum = 0;
    for (const auto& cs : s.doc->core_series) rq_sum += cs.rq_depth;
    a.entry.mean_rq_depth =
        static_cast<double>(rq_sum) / static_cast<double>(samples);
  }

  a.n_cores = s.doc->n_cores;
  a.interval = s.doc->interval;
  a.dropped_ticks = s.doc->dropped_ticks;
  a.counters = s.doc->counters;
  a.gauges = s.doc->gauges;
  a.watchdog_checks = s.doc->watchdog_checks;
  a.violations = s.doc->violation_records;
  a.histograms.reserve(s.histograms.size());
  for (const auto& [name, hist] : s.histograms) {
    EO_CHECK(hist != nullptr) << "null histogram '" << name << "'";
    a.histograms.emplace_back(name, *hist);  // deep copy; kernel may die
  }
  hosts_.push_back(std::move(a));
}

FleetMetricsDoc FleetAggregator::finish() const {
  EO_CHECK(!hosts_.empty()) << "finish() on an empty FleetAggregator";

  // Canonical order: host index. Everything below — including the
  // floating-point histogram merges — walks hosts in this order, so the
  // result is independent of add_host order.
  std::vector<const HostAccum*> order;
  order.reserve(hosts_.size());
  for (const auto& h : hosts_) order.push_back(&h);
  std::sort(order.begin(), order.end(),
            [](const HostAccum* a, const HostAccum* b) {
              return a->entry.host < b->entry.host;
            });

  FleetMetricsDoc doc;
  doc.n_hosts = static_cast<int>(order.size());
  doc.n_cores = order.front()->n_cores;
  doc.interval = order.front()->interval;

  const std::size_t n_counters = order.front()->counters.size();
  const std::size_t n_gauges = order.front()->gauges.size();
  const std::size_t n_hists = order.front()->histograms.size();
  doc.counters.resize(n_counters);
  std::vector<std::int64_t> gauge_sum(n_gauges, 0);
  doc.gauges.resize(n_gauges);
  std::vector<Histogram> merged(n_hists);

  for (std::size_t i = 0; i < order.size(); ++i) {
    const HostAccum& h = *order[i];
    EO_CHECK_EQ(h.n_cores, doc.n_cores);
    EO_CHECK_EQ(h.interval, doc.interval);
    EO_CHECK_EQ(h.counters.size(), n_counters);
    EO_CHECK_EQ(h.gauges.size(), n_gauges);
    EO_CHECK_EQ(h.histograms.size(), n_hists);

    doc.ticks += h.entry.ticks;
    doc.dropped_ticks += h.dropped_ticks;
    doc.watchdog_checks += h.watchdog_checks;
    doc.watchdog_violations += h.entry.watchdog_violations;

    for (std::size_t c = 0; c < n_counters; ++c) {
      if (i == 0) {
        doc.counters[c].name = h.counters[c].name;
      } else {
        EO_CHECK(doc.counters[c].name == h.counters[c].name)
            << "counter order mismatch across hosts: '"
            << doc.counters[c].name << "' vs '" << h.counters[c].name << "'";
      }
      doc.counters[c].value += h.counters[c].value;
    }
    for (std::size_t g = 0; g < n_gauges; ++g) {
      const std::int64_t v = h.gauges[g].value;
      if (i == 0) {
        doc.gauges[g].name = h.gauges[g].name;
        doc.gauges[g].min = v;
        doc.gauges[g].max = v;
      } else {
        EO_CHECK(doc.gauges[g].name == h.gauges[g].name)
            << "gauge order mismatch across hosts";
        doc.gauges[g].min = std::min(doc.gauges[g].min, v);
        doc.gauges[g].max = std::max(doc.gauges[g].max, v);
      }
      gauge_sum[g] += v;  // int64: exact, order-free
    }
    for (std::size_t m = 0; m < n_hists; ++m) {
      EO_CHECK(order.front()->histograms[m].first == h.histograms[m].first)
          << "histogram order mismatch across hosts";
      merged[m].merge(h.histograms[m].second);
    }

    doc.hosts.push_back(h.entry);
    for (const auto& v : h.violations) {
      Violation tagged = v;
      tagged.invariant = host_prefixed(h.entry.host, v.invariant);
      doc.violation_records.push_back(std::move(tagged));
    }
  }

  for (std::size_t g = 0; g < n_gauges; ++g) {
    doc.gauges[g].mean = static_cast<double>(gauge_sum[g]) /
                         static_cast<double>(order.size());
  }
  doc.histograms.reserve(n_hists);
  for (std::size_t m = 0; m < n_hists; ++m) {
    doc.histograms.push_back(
        summarize_histogram(order.front()->histograms[m].first, merged[m]));
  }
  return doc;
}

MetricsDoc tag_host_violations(const MetricsDoc& doc, int host) {
  MetricsDoc tagged = doc;
  for (auto& v : tagged.violation_records) {
    v.invariant = host_prefixed(host, v.invariant);
  }
  return tagged;
}

std::string render_fleet(const FleetMetricsDoc& doc,
                         const std::string& format) {
  std::ostringstream os;
  EO_CHECK(format == "json")
      << "unknown fleet metrics format '" << format << "'";
  render_fleet_json(doc, os);
  return os.str();
}

bool export_fleet_to_file(const FleetMetricsDoc& doc, const std::string& path,
                          std::string* err) {
  const std::string text = render_fleet(doc, "json");
  if (!validate_fleet_metrics_json(text, err)) return false;
  return json::write_file(path, text, err);
}

bool validate_fleet_metrics_json(const std::string& text, std::string* err) {
  json::Value root;
  if (!json::parse(text, &root, err)) return false;
  if (!root.is_object()) return fail(err, "document root is not an object");
  if (!json::check_schema(root, kFleetMetricsSchemaName,
                          kFleetMetricsSchemaVersion, err)) {
    return false;
  }
  for (const char* key :
       {"n_hosts", "n_cores", "interval_ns", "ticks", "dropped_ticks"}) {
    if (!require_number(root, key, err)) return false;
  }
  const int n_hosts = static_cast<int>(root.get("n_hosts")->num);
  if (n_hosts <= 0) return fail(err, "'n_hosts' must be positive");

  if (!validate_counters(root, err)) return false;

  const json::Value* gauges = root.get("gauges");
  if (!gauges || !gauges->is_array()) {
    return fail(err, "'gauges' missing or not an array");
  }
  for (const auto& g : gauges->items) {
    if (!g.is_object()) return fail(err, "gauge entry not an object");
    const json::Value* name = g.get("name");
    if (!name || !name->is_string() || name->str.empty()) {
      return fail(err, "gauge entry missing string 'name'");
    }
    for (const char* key : {"min", "mean", "max"}) {
      if (!require_number(g, key, err)) return false;
    }
  }

  if (!validate_histograms(root, err)) return false;

  const json::Value* hosts = root.get("hosts");
  if (!hosts || !hosts->is_array() ||
      hosts->items.size() != static_cast<std::size_t>(n_hosts)) {
    return fail(err, "'hosts' missing or not n_hosts entries");
  }
  int expect = 0;
  for (const auto& h : hosts->items) {
    if (!h.is_object()) return fail(err, "host entry not an object");
    for (const char* key :
         {"host", "issued", "completed", "shed", "p99_ns", "queue_p99_ns",
          "service_p99_ns", "sched_delay_p99_ns", "mean_rq_depth",
          "vb_park_rate", "bwd_skip_rate", "ticks", "watchdog_violations"}) {
      if (!require_number(h, key, err)) return false;
    }
    if (static_cast<int>(h.get("host")->num) != expect) {
      return fail(err, "host entries not sorted 0..n_hosts-1");
    }
    ++expect;
  }

  if (!validate_watchdog(root, err)) return false;
  // The whole point of the fleet doc's records: attributability.
  for (const auto& r : root.get("watchdog")->get("records")->items) {
    if (r.get("invariant")->str.rfind("host=", 0) != 0) {
      return fail(err, "fleet watchdog record invariant lacks host= prefix");
    }
  }
  return true;
}

}  // namespace eo::obs
