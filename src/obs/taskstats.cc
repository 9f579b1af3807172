#include "obs/taskstats.h"

#include <sstream>

#include "common/json.h"

namespace eo::obs {

using json::fail;

const char* to_string(TaskDelayState s) {
  switch (s) {
#define EO_TDS_NAME(name, wire)  \
  case TaskDelayState::name:     \
    return #wire;
    EO_TASK_DELAY_STATES(EO_TDS_NAME)
#undef EO_TDS_NAME
  }
  return "?";
}

void write_taskstats_json(json::Writer& w, const TaskstatsDoc& doc) {
  w.begin_object();
  w.field("schema", kTaskstatsSchemaName);
  w.field("schema_version", kTaskstatsSchemaVersion);
  w.field("n_tasks", static_cast<std::uint64_t>(doc.tasks.size()));
  w.key("tasks");
  w.begin_array();
  for (const TaskstatsRecord& r : doc.tasks) {
    w.begin_object();
    w.field("tid", r.tid);
    w.field("name", r.name);
    w.field("finished", r.finished);
    w.field("lifetime_ns", static_cast<std::int64_t>(r.lifetime));
#define EO_TDS_FIELD(name, wire)                 \
    w.field(#wire "_ns", static_cast<std::int64_t>( \
                             r.times[TaskDelayState::name]));
    EO_TASK_DELAY_STATES(EO_TDS_FIELD)
#undef EO_TDS_FIELD
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

bool validate_taskstats_value(const json::Value& v, std::string* err) {
  if (!v.is_object()) return fail(err, "taskstats is not an object");
  if (!json::check_schema(v, kTaskstatsSchemaName, kTaskstatsSchemaVersion,
                          err, "taskstats ")) {
    return false;
  }
  const json::Value* n_tasks = v.get("n_tasks");
  if (!n_tasks || !n_tasks->is_number()) {
    return fail(err, "taskstats missing numeric 'n_tasks'");
  }
  const json::Value* tasks = v.get("tasks");
  if (!tasks || !tasks->is_array()) {
    return fail(err, "taskstats missing array 'tasks'");
  }
  if (static_cast<double>(tasks->items.size()) != n_tasks->num) {
    return fail(err, "taskstats 'n_tasks' disagrees with the tasks array");
  }
  for (const json::Value& t : tasks->items) {
    if (!t.is_object()) return fail(err, "taskstats task is not an object");
    const json::Value* tid = t.get("tid");
    if (!tid || !tid->is_number()) {
      return fail(err, "taskstats task missing numeric 'tid'");
    }
    const json::Value* name = t.get("name");
    if (!name || !name->is_string()) {
      return fail(err, "taskstats task missing string 'name'");
    }
    const json::Value* finished = t.get("finished");
    if (!finished || !finished->is_bool()) {
      return fail(err, "taskstats task missing bool 'finished'");
    }
    const json::Value* lifetime = t.get("lifetime_ns");
    if (!lifetime || !lifetime->is_number() || lifetime->num < 0) {
      return fail(err, "taskstats task missing non-negative 'lifetime_ns'");
    }
    double sum = 0;
#define EO_TDS_CHECK(name, wire)                                         \
    {                                                                    \
      const json::Value* f = t.get(#wire "_ns");                         \
      if (!f || !f->is_number() || f->num < 0) {                         \
        return fail(err, "taskstats task missing non-negative '" #wire   \
                         "_ns'");                                        \
      }                                                                  \
      sum += f->num;                                                     \
    }
    EO_TASK_DELAY_STATES(EO_TDS_CHECK)
#undef EO_TDS_CHECK
    // Conservation is part of the schema: state times must sum to the
    // kernel-ground-truth lifetime exactly. Both sides are integers well
    // under 2^53, so double equality is exact here.
    if (sum != lifetime->num) {
      return fail(err, "taskstats task tid=" +
                           std::to_string(static_cast<long long>(tid->num)) +
                           " state times sum to " +
                           std::to_string(static_cast<long long>(sum)) +
                           " != lifetime_ns " +
                           std::to_string(
                               static_cast<long long>(lifetime->num)));
    }
  }
  return true;
}

namespace {

/// The folded format delimits frames with ';' and the count with the last
/// space, so those characters cannot appear inside a frame name.
std::string sanitize_frame(const std::string& s) {
  std::string out = s.empty() ? std::string("?") : s;
  for (char& c : out) {
    if (c == ';') c = ':';
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') c = '_';
  }
  return out;
}

}  // namespace

std::string render_folded(const TaskstatsDoc& doc,
                          const std::string& workload) {
  std::ostringstream os;
  const std::string root = sanitize_frame(workload);
  for (const TaskstatsRecord& r : doc.tasks) {
    // Task frames are "<name>/<tid>" so same-named workers stay distinct
    // stacks instead of merging into one frame.
    const std::string task =
        sanitize_frame(r.name) + "/" + std::to_string(r.tid);
    for (std::size_t i = 0; i < kNumTaskDelayStates; ++i) {
      const SimDuration ns = r.times.t[i];
      if (ns <= 0) continue;
      os << root << ';' << task << ';'
         << to_string(static_cast<TaskDelayState>(i)) << ' ' << ns << '\n';
    }
  }
  return os.str();
}

bool export_folded_to_file(const TaskstatsDoc& doc, const std::string& workload,
                           const std::string& path, std::string* err) {
  return json::write_file(path, render_folded(doc, workload), err);
}

}  // namespace eo::obs
