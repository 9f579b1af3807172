#include "trace/export.h"

#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/json.h"

namespace eo::trace {

using json::fail;

namespace {

/// Microsecond timestamp with nanosecond precision, as Chrome expects.
std::string us(SimTime ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

std::string json_escape(const std::string& s) { return json::escape(s); }

}  // namespace

void write_chrome_json(const Trace& t, std::ostream& os) {
  std::map<std::int32_t, std::string> names(t.task_names.begin(),
                                            t.task_names.end());
  auto task_label = [&](std::int32_t tid) {
    auto it = names.find(tid);
    if (it == names.end()) return std::string("tid") + std::to_string(tid);
    return it->second + "/" + std::to_string(tid);
  };

  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // Metadata: one process, one named thread lane per core plus an ambient
  // lane for IRQ-context events.
  sep();
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"sim-kernel\"}}";
  for (int c = 0; c <= t.n_cores; ++c) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << c + 1
       << ",\"args\":{\"name\":\""
       << (c < t.n_cores ? "core " + std::to_string(c) : std::string("irq"))
       << "\"}}";
  }

  // Lane for a record: cores at tid 1..N, ambient at N+1.
  auto lane = [&](const TraceEvent& e) {
    const int c = e.core >= 0 && e.core < t.n_cores ? e.core : t.n_cores;
    return c + 1;
  };

  // Run slices: pair switch_in with the next switch_out on the same core.
  std::vector<SimTime> slice_start(static_cast<std::size_t>(t.n_cores) + 1, -1);
  std::vector<std::int32_t> slice_tid(static_cast<std::size_t>(t.n_cores) + 1,
                                      0);
  for (const TraceEvent& e : t.events) {
    const auto l = static_cast<std::size_t>(lane(e)) - 1;
    const auto kind = static_cast<EventKind>(e.kind);
    if (kind == EventKind::kSwitchIn) {
      slice_start[l] = e.ts;
      slice_tid[l] = e.tid;
      continue;
    }
    if (kind == EventKind::kSwitchOut && slice_start[l] >= 0) {
      sep();
      os << "{\"name\":\"" << json_escape(task_label(slice_tid[l]))
         << "\",\"ph\":\"X\",\"ts\":" << us(slice_start[l])
         << ",\"dur\":" << us(e.ts - slice_start[l]) << ",\"pid\":0,\"tid\":"
         << l + 1 << ",\"args\":{\"vruntime\":" << e.arg0
         << ",\"voluntary\":" << e.arg1 << "}}";
      slice_start[l] = -1;
      continue;
    }
    if (kind == EventKind::kEnqueue || kind == EventKind::kDequeue) {
      // Runqueue depth as a counter track per core.
      sep();
      os << "{\"name\":\"rq_depth core" << (e.core >= 0 ? e.core : -1)
         << "\",\"ph\":\"C\",\"ts\":" << us(e.ts)
         << ",\"pid\":0,\"args\":{\"nr_running\":" << e.arg0 << "}}";
      continue;
    }
    // Everything else: a thread-scoped instant on its core lane.
    sep();
    os << "{\"name\":\"" << to_string(kind)
       << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << us(e.ts)
       << ",\"pid\":0,\"tid\":" << lane(e) << ",\"args\":{\"task\":\""
       << json_escape(task_label(e.tid)) << "\",\"arg0\":" << e.arg0
       << ",\"arg1\":" << e.arg1 << "}}";
  }
  os << "\n],\"otherData\":{\"dropped_events\":\"" << t.dropped << "\"}}\n";
}

void write_csv(const Trace& t, std::ostream& os) {
  os << "ts_ns,core,kind,kind_name,tid,arg0,arg1\n";
  for (const TraceEvent& e : t.events) {
    os << e.ts << ',' << e.core << ',' << e.kind << ','
       << to_string(static_cast<EventKind>(e.kind)) << ',' << e.tid << ','
       << e.arg0 << ',' << e.arg1 << '\n';
  }
}

std::string render(const Trace& t, const std::string& format) {
  std::ostringstream os;
  if (format == "csv") {
    write_csv(t, os);
  } else {
    write_chrome_json(t, os);
  }
  return os.str();
}

bool export_to_file(const Trace& t, const std::string& path,
                    const std::string& format, std::string* err) {
  const std::string text = render(t, format);
  if (format != "csv" && !validate_chrome_trace_json(text, err)) return false;
  return json::write_file(path, text, err);
}

// The JSON grammar itself is handled by the shared parser in common/json.h;
// this function checks the Chrome trace-event envelope on the parsed DOM.
bool validate_chrome_trace_json(const std::string& text, std::string* err) {
  json::Value root;
  if (!json::parse(text, &root, err)) return false;
  if (!root.is_object()) return fail(err, "root is not an object");
  const json::Value* events = root.get("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail(err, "missing traceEvents array");
  }
  for (std::size_t i = 0; i < events->items.size(); ++i) {
    const json::Value& e = events->items[i];
    // The reason is built only on failure, not once per event.
    auto at = [i](const char* what) {
      return "traceEvents[" + std::to_string(i) + "]" + what;
    };
    if (!e.is_object()) return fail(err, at(" is not an object"));
    const json::Value* ph = e.get("ph");
    const json::Value* name = e.get("name");
    if (ph == nullptr || !ph->is_string() || ph->str.empty()) {
      return fail(err, at(" lacks a string \"ph\""));
    }
    if (name == nullptr || !name->is_string()) {
      return fail(err, at(" lacks a string \"name\""));
    }
    if (ph->str != "M") {  // metadata events carry no timestamp
      const json::Value* ts = e.get("ts");
      if (ts == nullptr || !ts->is_number() || ts->num < 0) {
        return fail(err, at(" lacks a non-negative numeric \"ts\""));
      }
    }
  }
  return true;
}

}  // namespace eo::trace
