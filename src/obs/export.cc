#include "obs/export.h"

#include <algorithm>
#include <sstream>

#include "common/histogram.h"
#include "common/json.h"
#include "common/logging.h"
#include "metrics/table_printer.h"

namespace eo::obs {

using json::fail;
using json::require_number;

namespace {

/// `key`: [{name, value}] — the counters of both documents and the
/// single-host gauges.
template <typename NamedValue>
void write_named_values(json::Writer& w, const char* key,
                        const std::vector<NamedValue>& values) {
  w.key(key);
  w.begin_array();
  for (const auto& v : values) {
    w.begin_object();
    w.field("name", v.name);
    w.field("value", v.value);
    w.end_object();
  }
  w.end_array();
}

bool validate_named_values(const json::Value& root, const char* key,
                           std::string* err) {
  const json::Value* arr = root.get(key);
  if (!arr || !arr->is_array()) {
    return fail(err, std::string("'") + key + "' missing or not an array");
  }
  for (const auto& e : arr->items) {
    if (!e.is_object()) return fail(err, std::string(key) + " entry not an object");
    const json::Value* name = e.get("name");
    if (!name || !name->is_string() || name->str.empty()) {
      return fail(err, std::string(key) + " entry missing string 'name'");
    }
    if (!require_number(e, "value", err)) return false;
  }
  return true;
}

void render_json(const MetricsDoc& doc, std::ostream& os) {
  EO_CHECK_EQ(doc.core_series.size(),
              doc.tick_series.size() * static_cast<std::size_t>(doc.n_cores));
  json::Writer w(os);
  w.begin_object();
  w.field("schema", kMetricsSchemaName);
  w.field("schema_version", kMetricsSchemaVersion);
  w.field("n_cores", doc.n_cores);
  w.field("interval_ns", static_cast<std::int64_t>(doc.interval));
  w.field("ticks", doc.ticks);
  w.field("dropped_ticks", doc.dropped_ticks);

  write_counters(w, doc.counters);
  write_named_values(w, "gauges", doc.gauges);
  write_histograms(w, doc.histograms);

  w.key("series");
  w.begin_object();
  w.key("ticks");
  w.begin_array();
  for (const auto& t : doc.tick_series) {
    w.begin_object();
    w.field("ts_ns", static_cast<std::int64_t>(t.ts));
    w.field("live_tasks", t.live_tasks);
    w.field("online_cores", t.online_cores);
    w.field("d_context_switches", t.d_context_switches);
    w.field("d_wakeups", t.d_wakeups);
    w.field("d_migrations", t.d_migrations);
    w.end_object();
  }
  w.end_array();
  w.key("cores");
  w.begin_array();
  for (int c = 0; c < doc.n_cores; ++c) {
    w.begin_object();
    w.field("core", c);
    w.key("samples");
    w.begin_array();
    for (std::size_t f = 0; f < doc.tick_series.size(); ++f) {
      const CoreSample& s =
          doc.core_series[f * static_cast<std::size_t>(doc.n_cores) +
                          static_cast<std::size_t>(c)];
      w.begin_object();
      w.field("rq", s.rq_depth);
      w.field("sched", s.schedulable);
      w.field("vb", s.vb_parked);
      w.field("skip", s.bwd_skipped);
      w.field("run", static_cast<int>(s.running));
      w.field("on", static_cast<int>(s.online));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();  // series

  write_watchdog(w, doc.watchdog_checks, doc.watchdog_violations,
                 doc.violation_records);

  if (doc.taskstats != nullptr) {
    w.key("taskstats");
    write_taskstats_json(w, *doc.taskstats);
  }
  w.end_object();
  os << "\n";
}

void render_csv(const MetricsDoc& doc, std::ostream& os) {
  os << "ts_ns,core,rq_depth,schedulable,vb_parked,bwd_skipped,running,"
        "online,live_tasks,online_cores,d_context_switches,d_wakeups,"
        "d_migrations\n";
  for (std::size_t f = 0; f < doc.tick_series.size(); ++f) {
    const TickSample& t = doc.tick_series[f];
    // One global row (core == -1), then one row per core.
    os << t.ts << ",-1,,,,,,," << t.live_tasks << ',' << t.online_cores << ','
       << t.d_context_switches << ',' << t.d_wakeups << ',' << t.d_migrations
       << '\n';
    for (int c = 0; c < doc.n_cores; ++c) {
      const CoreSample& s =
          doc.core_series[f * static_cast<std::size_t>(doc.n_cores) +
                          static_cast<std::size_t>(c)];
      os << t.ts << ',' << c << ',' << s.rq_depth << ',' << s.schedulable
         << ',' << s.vb_parked << ',' << s.bwd_skipped << ','
         << static_cast<int>(s.running) << ',' << static_cast<int>(s.online)
         << ",,,,,\n";
    }
  }
}

void render_report(const MetricsDoc& doc, std::ostream& os) {
  os << "eo-metrics report: cores=" << doc.n_cores
     << " interval=" << to_us(doc.interval) << "us ticks=" << doc.ticks
     << " retained=" << doc.tick_series.size()
     << " dropped=" << doc.dropped_ticks << "\n";
  os << "watchdog: checks=" << doc.watchdog_checks
     << " violations=" << doc.watchdog_violations << "\n";
  for (const auto& v : doc.violation_records) {
    os << "  VIOLATION t=" << v.ts << "ns " << v.invariant << ": " << v.detail
       << "\n";
  }

  if (!doc.tick_series.empty()) {
    os << "\n";
    metrics::TablePrinter t(
        {"core", "avg_rq", "max_rq", "avg_sched", "avg_vb", "avg_skip",
         "run%", "on%"},
        os);
    const auto frames = doc.tick_series.size();
    for (int c = 0; c < doc.n_cores; ++c) {
      double rq = 0, sched = 0, vb = 0, skip = 0, run = 0, on = 0;
      std::int32_t max_rq = 0;
      for (std::size_t f = 0; f < frames; ++f) {
        const CoreSample& s =
            doc.core_series[f * static_cast<std::size_t>(doc.n_cores) +
                            static_cast<std::size_t>(c)];
        rq += s.rq_depth;
        sched += s.schedulable;
        vb += s.vb_parked;
        skip += s.bwd_skipped;
        run += s.running;
        on += s.online;
        max_rq = std::max(max_rq, s.rq_depth);
      }
      const double n = static_cast<double>(frames);
      t.add_row({metrics::TablePrinter::integer(c),
                 metrics::TablePrinter::num(rq / n),
                 metrics::TablePrinter::integer(max_rq),
                 metrics::TablePrinter::num(sched / n),
                 metrics::TablePrinter::num(vb / n),
                 metrics::TablePrinter::num(skip / n),
                 metrics::TablePrinter::num(run / n * 100.0, 1),
                 metrics::TablePrinter::num(on / n * 100.0, 1)});
    }
    t.print();
  }

  os << "\ncounters:\n";
  for (const auto& c : doc.counters) {
    os << "  " << c.name << " " << c.value << "\n";
  }
  if (!doc.gauges.empty()) {
    os << "gauges:\n";
    for (const auto& g : doc.gauges) {
      os << "  " << g.name << " " << g.value << "\n";
    }
  }
  if (!doc.histograms.empty()) {
    os << "histograms:\n";
    for (const auto& h : doc.histograms) {
      os << "  " << h.name << " count=" << h.count << " min=" << h.min
         << " max=" << h.max << " mean=" << h.mean << " p50=" << h.p50
         << " p95=" << h.p95 << " p99=" << h.p99 << " p999=" << h.p999
         << "\n";
    }
  }
}

}  // namespace

void write_counters(json::Writer& w,
                    const std::vector<MetricRegistry::CounterValue>& counters) {
  write_named_values(w, "counters", counters);
}

void write_histograms(json::Writer& w,
                      const std::vector<HistogramSummary>& histograms) {
  w.key("histograms");
  w.begin_array();
  for (const auto& h : histograms) {
    w.begin_object();
    w.field("name", h.name);
    w.field("count", h.count);
    w.field("min", h.min);
    w.field("max", h.max);
    w.field("mean", h.mean);
    w.field("p50", h.p50);
    w.field("p95", h.p95);
    w.field("p99", h.p99);
    w.field("p999", h.p999);
    w.end_object();
  }
  w.end_array();
}

void write_watchdog(json::Writer& w, std::uint64_t checks,
                    std::uint64_t violations,
                    const std::vector<Violation>& records) {
  w.key("watchdog");
  w.begin_object();
  w.field("checks", checks);
  w.field("violations", violations);
  w.key("records");
  w.begin_array();
  for (const auto& v : records) {
    w.begin_object();
    w.field("ts_ns", static_cast<std::int64_t>(v.ts));
    w.field("invariant", v.invariant);
    w.field("detail", v.detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

bool validate_counters(const json::Value& root, std::string* err) {
  return validate_named_values(root, "counters", err);
}

bool validate_histograms(const json::Value& root, std::string* err) {
  const json::Value* hists = root.get("histograms");
  if (!hists || !hists->is_array()) {
    return fail(err, "'histograms' missing or not an array");
  }
  for (const auto& h : hists->items) {
    if (!h.is_object()) return fail(err, "histogram entry not an object");
    const json::Value* name = h.get("name");
    if (!name || !name->is_string()) {
      return fail(err, "histogram entry missing string 'name'");
    }
    for (const char* key :
         {"count", "min", "max", "mean", "p50", "p95", "p99", "p999"}) {
      if (!require_number(h, key, err)) return false;
    }
  }
  return true;
}

bool validate_watchdog(const json::Value& root, std::string* err) {
  const json::Value* wd = root.get("watchdog");
  if (!wd || !wd->is_object()) {
    return fail(err, "'watchdog' missing or not an object");
  }
  if (!require_number(*wd, "checks", err)) return false;
  if (!require_number(*wd, "violations", err)) return false;
  const json::Value* records = wd->get("records");
  if (!records || !records->is_array()) {
    return fail(err, "watchdog missing array 'records'");
  }
  for (const auto& r : records->items) {
    if (!r.is_object()) return fail(err, "watchdog record not an object");
    if (!require_number(r, "ts_ns", err)) return false;
    const json::Value* inv = r.get("invariant");
    if (!inv || !inv->is_string()) {
      return fail(err, "watchdog record missing string 'invariant'");
    }
  }
  return true;
}

HistogramSummary summarize_histogram(std::string_view name,
                                     const Histogram& hist) {
  HistogramSummary s;
  s.name = name;
  s.count = hist.total_count();
  s.min = hist.min();
  s.max = hist.max();
  s.mean = hist.mean();
  s.p50 = hist.p50();
  s.p95 = hist.p95();
  s.p99 = hist.p99();
  s.p999 = hist.p999();
  return s;
}

std::string render(const MetricsDoc& doc, const std::string& format) {
  std::ostringstream os;
  if (format == "json") {
    render_json(doc, os);
  } else if (format == "csv") {
    render_csv(doc, os);
  } else if (format == "report") {
    render_report(doc, os);
  } else {
    EO_CHECK(false) << "unknown metrics format '" << format << "'";
  }
  return os.str();
}

bool export_to_file(const MetricsDoc& doc, const std::string& path,
                    const std::string& format, std::string* err) {
  if (format != "json" && format != "csv" && format != "report") {
    return fail(err, "unknown metrics format '" + format + "'");
  }
  const std::string text = render(doc, format);
  if (format == "json" && !validate_metrics_json(text, err)) return false;
  return json::write_file(path, text, err);
}

bool validate_metrics_json(const std::string& text, std::string* err) {
  json::Value root;
  if (!json::parse(text, &root, err)) return false;
  if (!root.is_object()) {
    return fail(err, "document root is not an object");
  }
  if (!json::check_schema(root, kMetricsSchemaName, kMetricsSchemaVersion,
                          err)) {
    return false;
  }
  for (const char* key : {"n_cores", "interval_ns", "ticks", "dropped_ticks"}) {
    if (!require_number(root, key, err)) return false;
  }
  const int n_cores = static_cast<int>(root.get("n_cores")->num);
  if (n_cores <= 0) return fail(err, "'n_cores' must be positive");
  if (!validate_counters(root, err)) return false;
  if (!validate_named_values(root, "gauges", err)) return false;
  if (!validate_histograms(root, err)) return false;

  const json::Value* series = root.get("series");
  if (!series || !series->is_object()) {
    return fail(err, "'series' missing or not an object");
  }
  const json::Value* ticks = series->get("ticks");
  if (!ticks || !ticks->is_array()) {
    return fail(err, "series missing array 'ticks'");
  }
  for (const auto& t : ticks->items) {
    if (!t.is_object()) return fail(err, "tick entry not an object");
    for (const char* key : {"ts_ns", "live_tasks", "online_cores",
                            "d_context_switches", "d_wakeups",
                            "d_migrations"}) {
      if (!require_number(t, key, err)) return false;
    }
  }
  const json::Value* cores = series->get("cores");
  if (!cores || !cores->is_array() ||
      cores->items.size() != static_cast<std::size_t>(n_cores)) {
    return fail(err, "series 'cores' missing or not n_cores entries");
  }
  for (const auto& c : cores->items) {
    if (!c.is_object()) return fail(err, "core series entry not an object");
    if (!require_number(c, "core", err)) return false;
    const json::Value* samples = c.get("samples");
    if (!samples || !samples->is_array() ||
        samples->items.size() != ticks->items.size()) {
      return fail(err, "core samples missing or misaligned with ticks");
    }
    for (const auto& s : samples->items) {
      if (!s.is_object()) return fail(err, "core sample not an object");
      for (const char* key : {"rq", "sched", "vb", "skip", "run", "on"}) {
        if (!require_number(s, key, err)) return false;
      }
    }
  }

  if (!validate_watchdog(root, err)) return false;

  // Optional embedded `eo-taskstats` section (present when the run asked for
  // per-task delay accounting export).
  const json::Value* ts = root.get("taskstats");
  if (ts != nullptr && !validate_taskstats_value(*ts, err)) return false;
  return true;
}

}  // namespace eo::obs
