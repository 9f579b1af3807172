// Per-task delay accounting (sim-taskstats).
//
// The simulated kernel's analogue of Linux delayacct/taskstats: every
// `kern::Task` embeds a fixed-size `TaskDelayAcct` that attributes the task's
// entire lifetime to exactly one `TaskDelayState` at every instant — on-CPU
// execution, runqueue wait, futex/epoll blocking, timed sleep, VB parking,
// BWD schedule-skip delay, and post-migration wait. That state is the task's
// only state: the kernel sets it at one call, `Kernel::set_state`, at every
// state-change point (schedule/deschedule, futex/epoll wait+wake, VB
// park/unpark, BWD timer fire, load-balance migration), and that call charges
// the interval since the previous transition to the state being left. Every
// charge is `now - since` on the monotone simulation clock, so the integer
// state times sum to the task's lifetime by construction and nothing re-checks
// it at run time. Conservation is checked where it can fail: on outside input
// (`validate_taskstats_value`) and in the kernel-run tests.
//
// On top of the raw accumulators:
//  * `TaskstatsDoc` — a per-kernel snapshot (one record per task, creation
//    order) embedded into the `eo-metrics` document as a versioned
//    `eo-taskstats` section when `KernelConfig::taskstats` is set, and
//    validated structurally (including conservation) by `json_check`.
//  * `render_folded` — a folded-stack "state flamegraph" exporter
//    (`workload;task;state count` lines) collapsible by inferno/speedscope.
//  * the `src/traffic` critical-path analyzer consumes `TaskDelaySnapshot`
//    deltas to decompose each request's latency into a blame table (see
//    `traffic::BlameBreakdown`).
//
// Everything is allocation-free on the simulation hot path (the accumulators
// are plain arrays inside `Task`) and deterministic (snapshots are pure
// functions of the simulation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"

namespace eo::json {
class Writer;
struct Value;
}  // namespace eo::json

namespace eo::obs {

/// X-macro over the delay states: enumerator name + snake_case wire name.
/// Keeps the enum, `to_string`, the JSON fields, the validator, and the
/// folded-stack exporter in sync by construction.
#define EO_TASK_DELAY_STATES(X)        \
  X(kOncpu, oncpu)                     \
  X(kRunnable, runnable)               \
  X(kFutexBlocked, futex_blocked)     \
  X(kEpollBlocked, epoll_blocked)     \
  X(kSleeping, sleeping)               \
  X(kVbParked, vb_parked)             \
  X(kBwdSkipDelayed, bwd_skip_delayed) \
  X(kMigrating, migrating)

/// Where a task's time goes. Exactly one state holds at every instant of a
/// started task's lifetime:
///  * `kOncpu`          — executing on a core (including VB flag-check
///                        quanta: time on CPU is on-CPU time).
///  * `kRunnable`       — on a runqueue, waiting for a core (rq wait).
///  * `kFutexBlocked`   — descheduled inside `futex_wait` (vanilla blocking).
///  * `kEpollBlocked`   — descheduled inside `epoll_wait` (vanilla blocking).
///  * `kSleeping`       — timed sleep.
///  * `kVbParked`       — virtually blocked: kernel-runnable but skipped by
///                        the VB policy until its wake flag is set.
///  * `kBwdSkipDelayed` — preempted by a BWD detection and skip-flagged;
///                        measured until the task next gets the CPU, i.e. the
///                        full scheduling delay a (mis)detection induces.
///  * `kMigrating`      — runqueue wait immediately after a cross-CPU
///                        placement (wakeup steal or load-balance pull),
///                        until first dispatch on the new core. Migrations
///                        are instantaneous in the simulator, so this
///                        isolates the post-migration wait they cause.
enum class TaskDelayState : std::uint8_t {
#define EO_TDS_ENUM(name, wire) name,
  EO_TASK_DELAY_STATES(EO_TDS_ENUM)
#undef EO_TDS_ENUM
};

inline constexpr std::size_t kNumTaskDelayStates = 8;

/// Wire name ("oncpu", "vb_parked", ...).
const char* to_string(TaskDelayState s);

/// A point-in-time copy of one task's accumulated state times. The open
/// interval since the last transition is charged to the current state, so
/// `total()` equals the task's lifetime at the snapshot instant exactly
/// (integer arithmetic, no rounding).
struct TaskDelaySnapshot {
  SimDuration t[kNumTaskDelayStates] = {};

  SimDuration operator[](TaskDelayState s) const {
    return t[static_cast<std::size_t>(s)];
  }
  SimDuration total() const {
    SimDuration sum = 0;
    for (std::size_t i = 0; i < kNumTaskDelayStates; ++i) sum += t[i];
    return sum;
  }
  /// Component-wise `later - earlier`: the time spent per state over the
  /// window between two snapshots of the same task.
  static TaskDelaySnapshot delta(const TaskDelaySnapshot& later,
                                 const TaskDelaySnapshot& earlier) {
    TaskDelaySnapshot d;
    for (std::size_t i = 0; i < kNumTaskDelayStates; ++i) {
      d.t[i] = later.t[i] - earlier.t[i];
    }
    return d;
  }
};

/// A task's one state and its per-state time accumulator, embedded in
/// `kern::Task`. The kernel's scheduling checks read the lifecycle (not
/// started, started, finished) and the current state.
class TaskDelayAcct {
 public:
  /// Begins the task's life in state `s` (kernel `start_task`).
  void start(SimTime now, TaskDelayState s) {
    start_ = now;
    since_ = now;
    state_ = s;
    started_ = true;
  }

  /// Charges the interval since the last transition to the current state and
  /// switches to `s`. Same-timestamp transitions are free (zero-duration).
  /// A no-op before start and after finish.
  void transition(SimTime now, TaskDelayState s) {
    if (!alive()) return;
    charge(now);
    state_ = s;
  }

  /// Ends the task's life. The final open interval is charged to the state
  /// the task exited from.
  void finish(SimTime now) {
    if (!alive()) return;
    charge(now);
    end_ = now;
    finished_ = true;
  }

  bool started() const { return started_; }
  bool finished() const { return finished_; }
  bool alive() const { return started_ && !finished_; }
  /// The current state; meaningful only while `alive()`.
  TaskDelayState state() const { return state_; }

  /// Ground-truth lifetime: start -> exit (or `now` while alive).
  SimDuration lifetime(SimTime now) const {
    if (!started_) return 0;
    return (finished_ ? end_ : now) - start_;
  }

  TaskDelaySnapshot snapshot(SimTime now) const {
    TaskDelaySnapshot s;
    for (std::size_t i = 0; i < kNumTaskDelayStates; ++i) s.t[i] = times_[i];
    if (alive()) s.t[static_cast<std::size_t>(state_)] += now - since_;
    return s;
  }

 private:
  void charge(SimTime now) {
    times_[static_cast<std::size_t>(state_)] += now - since_;
    since_ = now;
  }

  SimDuration times_[kNumTaskDelayStates] = {};
  SimTime since_ = 0;
  SimTime start_ = 0;
  SimTime end_ = 0;
  TaskDelayState state_ = TaskDelayState::kRunnable;
  bool started_ = false;
  bool finished_ = false;
};

// --- the eo-taskstats document -------------------------------------------

inline constexpr int kTaskstatsSchemaVersion = 1;
inline constexpr const char* kTaskstatsSchemaName = "eo-taskstats";

/// One task's record in a kernel snapshot.
struct TaskstatsRecord {
  std::uint64_t tid = 0;
  std::string name;
  bool finished = false;
  SimDuration lifetime = 0;  ///< kernel ground truth at snapshot time
  TaskDelaySnapshot times;
};

/// A whole-kernel snapshot (`Kernel::snapshot_taskstats`): one record per
/// task in creation (tid) order, so the rendering is deterministic.
struct TaskstatsDoc {
  std::vector<TaskstatsRecord> tasks;
};

/// Writes the `eo-taskstats` v1 section (a complete JSON object) at the
/// writer's current position. Embedded under the "taskstats" key of an
/// `eo-metrics` document.
void write_taskstats_json(json::Writer& w, const TaskstatsDoc& doc);

/// Structural + conservation validation of a parsed `eo-taskstats` section:
/// schema/version, `n_tasks` arity, per-record field types, and that every
/// record's state times sum exactly to its `lifetime_ns`.
bool validate_taskstats_value(const json::Value& v, std::string* err);

/// Folded-stack "state flamegraph" export: one
/// `workload;task;state <nanoseconds>` line per nonzero state, tasks in
/// record order — directly collapsible by inferno / flamegraph.pl /
/// speedscope. Frame names have `;` and whitespace sanitized to keep the
/// format unambiguous.
std::string render_folded(const TaskstatsDoc& doc, const std::string& workload);

/// Renders and writes the folded file; false (with `err`) on I/O failure.
bool export_folded_to_file(const TaskstatsDoc& doc, const std::string& workload,
                           const std::string& path, std::string* err);

}  // namespace eo::obs
