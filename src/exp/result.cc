#include "exp/result.h"

#include <cstdio>
#include <sstream>

#include "common/json.h"
#include "common/logging.h"

namespace eo::exp {

using json::fail;
using json::require_number;

namespace {

/// Simulated nanoseconds to milliseconds for the JSON document.
double to_ms(SimDuration d) { return static_cast<double>(d) / 1e6; }

void write_cell(json::Writer& w, const CellOutcome& o) {
  w.begin_object();
  w.key("coords");
  w.begin_array();
  for (const auto& c : o.cell.coords) w.value(c);
  w.end_array();
  if (o.skipped) {
    w.field("skipped", true);
    w.end_object();
    return;
  }
  if (o.not_applicable) {
    w.field("na", true);
    w.end_object();
    return;
  }
  w.field("completed", o.run.completed);
  w.field("attempts", o.attempts);
  w.field("deadline_ms", to_ms(o.final_deadline));
  w.field("exec_ms", o.ms());
  w.field("utilization_percent", o.run.utilization_percent);
  w.field("spin_busy_ms", to_ms(o.run.spin_busy));
  w.field("context_switches", o.run.stats.context_switches);
  w.field("migrations_in_node", o.run.stats.migrations_in_node);
  w.field("migrations_cross_node", o.run.stats.migrations_cross_node);
  w.field("vb_parks", o.run.stats.vb_parks);
  w.field("wakeup_p50_ns", o.run.wakeup_latency.p50());
  w.field("wakeup_p95_ns", o.run.wakeup_latency.p95());
  w.field("wakeup_p99_ns", o.run.wakeup_latency.p99());
  w.field("wakeup_count", o.run.wakeup_latency.total_count());
  w.key("bwd");
  w.begin_object();
  w.field("windows", o.run.bwd.windows);
  w.field("tp", o.run.bwd.tp);
  w.field("fp", o.run.bwd.fp);
  w.field("fn", o.run.bwd.fn);
  w.field("tn", o.run.bwd.tn);
  w.end_object();
  if (o.run.metrics) {
    const obs::MetricsDoc& m = *o.run.metrics;
    w.key("obs");
    w.begin_object();
    w.field("samples", static_cast<std::uint64_t>(m.ticks));
    w.field("dropped_samples", static_cast<std::uint64_t>(m.dropped_ticks));
    w.field("watchdog_checks", m.watchdog_checks);
    w.field("watchdog_violations", m.watchdog_violations);
    w.end_object();
  }
  if (!o.extra.empty()) {
    w.key("extra");
    w.begin_object();
    for (const auto& [k, v] : o.extra) w.field(k, v);
    w.end_object();
  }
  w.end_object();
}

}  // namespace

void ResultDoc::add_sweep(const Sweep& sweep, const Outcomes& outcomes) {
  EO_CHECK_EQ(sweep.size(), outcomes.size());
  SweepBlock b;
  b.name = sweep.name();
  for (std::size_t a = 0; a < sweep.n_axes(); ++a) {
    b.axes.emplace_back(sweep.axis_name(a), sweep.labels(a));
  }
  b.cells.assign(outcomes.begin(), outcomes.end());
  sweeps_.push_back(std::move(b));
}

void ResultDoc::set_meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, value);
}

std::string ResultDoc::render() const {
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object();
  w.field("schema", kResultSchemaName);
  w.field("schema_version", kResultSchemaVersion);
  w.field("bench", bench_id_);
  w.field("scale", scale_);
  w.field("seed", seed_);
  w.key("meta");
  w.begin_object();
  bool have_rev = false;
  for (const auto& e : meta_) have_rev = have_rev || e.first == "git_rev";
  if (!have_rev) w.field("git_rev", current_git_rev());
  for (const auto& [key, value] : meta_) w.field(key, value);
  w.end_object();
  w.key("sweeps");
  w.begin_array();
  for (const auto& s : sweeps_) {
    w.begin_object();
    w.field("name", s.name);
    w.key("axes");
    w.begin_array();
    for (const auto& [name, values] : s.axes) {
      w.begin_object();
      w.field("name", name);
      w.key("values");
      w.begin_array();
      for (const auto& v : values) w.value(v);
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.key("cells");
    w.begin_array();
    for (const auto& c : s.cells) write_cell(w, c);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
  return os.str();
}

bool ResultDoc::write(const std::string& path, std::string* err) const {
  const std::string text = render();
  if (!validate_result_json(text, err)) return false;
  return json::write_file(path, text, err);
}

namespace {

bool validate_cell(const json::Value& cell, std::size_t n_axes,
                   const std::vector<std::vector<std::string>>& axis_values,
                   std::string* err) {
  if (!cell.is_object()) return fail(err, "cell is not an object");
  const json::Value* coords = cell.get("coords");
  if (!coords || !coords->is_array() || coords->items.size() != n_axes) {
    return fail(err, "cell coords missing or wrong arity");
  }
  for (std::size_t a = 0; a < n_axes; ++a) {
    const json::Value& c = coords->items[a];
    if (!c.is_string()) return fail(err, "cell coord is not a string");
    bool member = false;
    for (const auto& v : axis_values[a]) member = member || v == c.str;
    if (!member) {
      return fail(err, "cell coord '" + c.str + "' not in axis values");
    }
  }
  const json::Value* skipped = cell.get("skipped");
  if (skipped) {
    if (!skipped->is_bool()) return fail(err, "'skipped' is not a bool");
    return true;
  }
  const json::Value* na = cell.get("na");
  if (na) {
    if (!na->is_bool()) return fail(err, "'na' is not a bool");
    return true;
  }
  const json::Value* completed = cell.get("completed");
  if (!completed || !completed->is_bool()) {
    return fail(err, "cell missing bool field 'completed'");
  }
  for (const char* key :
       {"attempts", "deadline_ms", "exec_ms", "utilization_percent",
        "spin_busy_ms", "context_switches", "migrations_in_node",
        "migrations_cross_node", "vb_parks", "wakeup_p50_ns", "wakeup_p95_ns",
        "wakeup_p99_ns", "wakeup_count"}) {
    if (!require_number(cell, key, err)) return false;
  }
  const json::Value* bwd = cell.get("bwd");
  if (!bwd || !bwd->is_object()) {
    return fail(err, "cell missing object field 'bwd'");
  }
  for (const char* key : {"windows", "tp", "fp", "fn", "tn"}) {
    if (!require_number(*bwd, key, err)) return false;
  }
  const json::Value* obs = cell.get("obs");
  if (obs) {
    if (!obs->is_object()) return fail(err, "'obs' is not an object");
    for (const char* key : {"samples", "dropped_samples", "watchdog_checks",
                            "watchdog_violations"}) {
      if (!require_number(*obs, key, err)) return false;
    }
  }
  const json::Value* extra = cell.get("extra");
  if (extra) {
    if (!extra->is_object()) return fail(err, "'extra' is not an object");
    for (const auto& [k, v] : extra->fields) {
      if (!v.is_number()) {
        return fail(err, "extra field '" + k + "' is not a number");
      }
    }
  }
  return true;
}

bool validate_sweep(const json::Value& sweep, std::string* err) {
  if (!sweep.is_object()) return fail(err, "sweep is not an object");
  const json::Value* name = sweep.get("name");
  if (!name || !name->is_string() || name->str.empty()) {
    return fail(err, "sweep missing non-empty string 'name'");
  }
  const json::Value* axes = sweep.get("axes");
  if (!axes || !axes->is_array()) {
    return fail(err, "sweep missing array 'axes'");
  }
  std::vector<std::vector<std::string>> axis_values;
  std::size_t product = 1;
  for (const auto& ax : axes->items) {
    if (!ax.is_object()) return fail(err, "axis is not an object");
    const json::Value* an = ax.get("name");
    if (!an || !an->is_string()) return fail(err, "axis missing string 'name'");
    const json::Value* vals = ax.get("values");
    if (!vals || !vals->is_array() || vals->items.empty()) {
      return fail(err, "axis missing non-empty array 'values'");
    }
    std::vector<std::string> labels;
    for (const auto& v : vals->items) {
      if (!v.is_string()) return fail(err, "axis value is not a string");
      labels.push_back(v.str);
    }
    product *= labels.size();
    axis_values.push_back(std::move(labels));
  }
  const json::Value* cells = sweep.get("cells");
  if (!cells || !cells->is_array()) {
    return fail(err, "sweep missing array 'cells'");
  }
  if (cells->items.size() != product) {
    return fail(err, "sweep '" + name->str + "' has " +
                         std::to_string(cells->items.size()) +
                         " cells, expected " + std::to_string(product));
  }
  for (const auto& cell : cells->items) {
    if (!validate_cell(cell, axis_values.size(), axis_values, err)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool validate_result_json(const std::string& text, std::string* err) {
  json::Value root;
  if (!json::parse(text, &root, err)) return false;
  if (!root.is_object()) return fail(err, "document root is not an object");
  if (!json::check_schema(root, kResultSchemaName, kResultSchemaVersion,
                          err)) {
    return false;
  }
  const json::Value* bench = root.get("bench");
  if (!bench || !bench->is_string() || bench->str.empty()) {
    return fail(err, "'bench' missing or empty");
  }
  const json::Value* scale = root.get("scale");
  if (!scale || !scale->is_number() || !(scale->num > 0)) {
    return fail(err, "'scale' missing or not > 0");
  }
  const json::Value* seed = root.get("seed");
  if (!seed || !seed->is_number()) return fail(err, "'seed' missing");
  const json::Value* meta = root.get("meta");
  if (!meta || !meta->is_object()) {
    return fail(err, "'meta' missing or not an object");
  }
  const json::Value* rev = meta->get("git_rev");
  if (!rev || !rev->is_string()) {
    return fail(err, "meta missing string 'git_rev'");
  }
  const json::Value* sweeps = root.get("sweeps");
  if (!sweeps || !sweeps->is_array() || sweeps->items.empty()) {
    return fail(err, "'sweeps' missing or empty");
  }
  for (const auto& s : sweeps->items) {
    if (!validate_sweep(s, err)) return false;
  }
  return true;
}

#ifndef EO_SOURCE_DIR
#define EO_SOURCE_DIR "."
#endif

std::string current_git_rev() {
  // Ask the source tree, not the working directory, so a bench run from
  // anywhere records the revision it was built from.
  FILE* p = ::popen(
      "git -C '" EO_SOURCE_DIR "' rev-parse HEAD 2>/dev/null", "r");
  if (!p) return "unknown";
  char buf[64] = {0};
  std::string out;
  while (std::fgets(buf, sizeof(buf), p)) out += buf;
  ::pclose(p);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  if (out.empty() || out.find_first_not_of("0123456789abcdef") !=
                         std::string::npos) {
    return "unknown";
  }
  return out;
}

}  // namespace eo::exp
