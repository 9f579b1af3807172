// Kernel event tracing (sim-ftrace).
//
// The simulator's analogue of ftrace / `perf sched record`: every layer of
// the kernel stack emits fixed-size POD `TraceEvent` records into per-core
// ring buffers. Emission is designed to be negligible on the fast path:
//
//  * runtime gate — with tracing disabled, `Tracer::emit` is a single
//    predicted branch; ring storage is only reserved once tracing is
//    enabled, and a page of it is touched only when an event lands there;
//  * fixed-capacity rings — emission never allocates; when a ring wraps the
//    oldest records are overwritten and counted as dropped.
//
// Traces are deterministic: timestamps come from the discrete-event engine,
// and per-ring order is emission order, so identical seeds produce
// byte-identical traces (a property test enforces this). See
// `src/trace/README.md` for the event catalogue and exporter docs.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/overwrite_ring.h"
#include "common/units.h"
#include "sim/engine.h"

namespace eo::trace {

/// Every instrumented point in the kernel. Keep the order stable: the values
/// are written into exported traces, and the CSV exporter emits the numeric
/// kind alongside the name.
enum class EventKind : std::uint16_t {
  // Task lifecycle.
  kTaskStart,      ///< task became runnable for the first time (arg0=cpu)
  kTaskExit,       ///< task exited
  // Context switching (kern/kernel.cc).
  kSwitchIn,       ///< task picked onto a core (arg0=vruntime, arg1=real switch)
  kSwitchOut,      ///< task removed from a core (arg0=vruntime, arg1=voluntary)
  kRunAfterWake,   ///< first run after an unblock (arg0=latency ns)
  // Wakeups (kern/kernel.cc).
  kWakeupBegin,    ///< waker entered the wake chain (arg0=waiter count)
  kWakeup,         ///< a wakee became runnable (arg0=target cpu, arg1=vb)
  kWakeupEnd,      ///< waker finished the wake chain (arg0=woken count)
  kMigration,      ///< task moved between cores (arg0=src, arg1=dst)
  // Runqueue (sched/runqueue.cc).
  kEnqueue,        ///< entity added (arg0=nr_running after, arg1=vruntime)
  kDequeue,        ///< entity removed (arg0=nr_running after, arg1=vruntime)
  kPickNext,       ///< entity chosen to run (arg0=nr_running, arg1=vruntime)
  // Timers (kern/kernel.cc). Timers re-arm in place via the engine's
  // periodic-event path, so one record per fire is the only per-tick cost.
  kTimerFire,      ///< repeating timer fired (arg0=timer id)
  // Futex (kern/kernel.cc; the lock record from kern/klock.h).
  kFutexWait,      ///< task blocked on a word (arg0=word id, arg1=vb)
  kFutexWake,      ///< futex_wake issued (arg0=word id, arg1=waiters matched)
  kFutexBucketLock,///< bucket lock acquired (arg0=wait ns, arg1=hold ns)
  // Epoll (kern/kernel.cc; the lock record from kern/klock.h).
  kEpollWait,      ///< task blocked in epoll_wait (arg0=epfd, arg1=vb)
  kEpollPost,      ///< event posted (arg0=epfd, arg1=had waiter)
  kEpollLock,      ///< instance lock acquired (arg0=wait ns, arg1=hold ns)
  // Virtual blocking (core/vb_policy.cc + sched/runqueue.cc + kernel).
  kVbDecision,     ///< policy decision (arg0=use vb, arg1=waiters after)
  kVbPark,         ///< entity marked blocked at the tree tail (arg0=saved vrt)
  kVbSkipQuantum,  ///< flag-check quantum granted to a parked entity
  kVbClear,        ///< blocked flag cleared / vruntime restored
  // Busy-waiting detection (core/bwd.cc + kernel + runqueue).
  kBwdSample,      ///< monitor window evaluated (arg0=detected, arg1=truth)
  kBwdDesched,     ///< spinner descheduled (arg0=ground-truth spin)
  kBwdSkipClear,   ///< skip flag expired in pick_next
  // Misc.
  kSleep,          ///< nanosleep started (arg0=duration ns)
  kCount,          ///< number of kinds (not a real event)
};

/// Stable lower_snake name for exporters ("switch_in", "futex_wait", ...).
const char* to_string(EventKind k);

/// One trace record. POD, 32 bytes; the emit fast path is a branch plus a
/// store of this struct into a reserved ring slot.
struct TraceEvent {
  SimTime ts = 0;           ///< engine time at emission (ns)
  std::int32_t tid = 0;     ///< task id, 0 if none
  std::int16_t core = -1;   ///< core id, -1 for ambient/IRQ context
  std::uint16_t kind = 0;   ///< EventKind
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
};
static_assert(std::is_trivially_copyable_v<TraceEvent>, "emit must be a store");
static_assert(sizeof(TraceEvent) == 32, "keep the record cache-friendly");

struct TraceConfig {
  bool enabled = false;
  /// Capacity of each per-core ring, in events (32 B each).
  std::size_t ring_capacity = 1u << 16;
};

/// Per-core ring of TraceEvents: fixed capacity, overwrite-oldest, drops
/// counted, storage written only as events arrive.
using TraceRing = OverwriteRing<TraceEvent>;

/// A finished trace: merged, time-ordered events plus labeling metadata.
struct Trace {
  int n_cores = 0;
  std::uint64_t dropped = 0;
  std::vector<TraceEvent> events;
  /// tid -> human-readable task name, for exporters.
  std::vector<std::pair<std::int32_t, std::string>> task_names;
};

/// Per-kernel tracer: one ring per core plus an ambient ring for events with
/// no core context (external epoll posts). Owned by the Kernel; every
/// instrumented module holds a raw pointer. Timestamps are read from the
/// engine at emission so call sites never thread `now` through.
class Tracer {
 public:
  Tracer(const sim::Engine* engine, int n_cores, TraceConfig cfg);

  bool enabled() const { return enabled_; }
  /// Enabling reserves the rings on first use; disabling keeps them.
  void set_enabled(bool on);

  void emit(int core, EventKind kind, std::int32_t tid, std::uint64_t arg0 = 0,
            std::uint64_t arg1 = 0) {
    if (!enabled_) return;
    TraceEvent e;
    e.ts = engine_->now();
    e.tid = tid;
    e.core = static_cast<std::int16_t>(core);
    e.kind = static_cast<std::uint16_t>(kind);
    e.arg0 = arg0;
    e.arg1 = arg1;
    rings_[ring_index(core)].push(e);
  }

  std::uint64_t total_events() const;
  std::uint64_t total_dropped() const;

  /// Merges the rings into one time-ordered record stream. Ties are broken
  /// by ring (core) index, then per-ring emission order, so the result is a
  /// pure function of the simulation.
  Trace snapshot() const;

 private:
  std::size_t ring_index(int core) const {
    return core >= 0 && core < n_cores_ ? static_cast<std::size_t>(core)
                                        : static_cast<std::size_t>(n_cores_);
  }

  const sim::Engine* engine_;
  int n_cores_;
  std::size_t ring_capacity_;
  bool enabled_ = false;
  std::vector<TraceRing> rings_;  ///< n_cores + 1 (last = ambient), lazy
};

}  // namespace eo::trace

// Emit macro used at every instrumentation point. `tracer` may be null (the
// module was never wired); a disabled tracer returns from `emit` at once.
#define EO_TRACE_EVENT(tracer, core, kind, tid, arg0, arg1)               \
  do {                                                                    \
    ::eo::trace::Tracer* eo_trace_t_ = (tracer);                          \
    if (eo_trace_t_ != nullptr) {                                         \
      eo_trace_t_->emit((core), (kind), (tid), (arg0), (arg1));           \
    }                                                                     \
  } while (0)
