#include "trace/trace.h"

#include <algorithm>

#include "common/logging.h"

namespace eo::trace {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kTaskStart:
      return "task_start";
    case EventKind::kTaskExit:
      return "task_exit";
    case EventKind::kSwitchIn:
      return "switch_in";
    case EventKind::kSwitchOut:
      return "switch_out";
    case EventKind::kRunAfterWake:
      return "run_after_wake";
    case EventKind::kWakeupBegin:
      return "wakeup_begin";
    case EventKind::kWakeup:
      return "wakeup";
    case EventKind::kWakeupEnd:
      return "wakeup_end";
    case EventKind::kMigration:
      return "migration";
    case EventKind::kEnqueue:
      return "enqueue";
    case EventKind::kDequeue:
      return "dequeue";
    case EventKind::kPickNext:
      return "pick_next";
    case EventKind::kTimerFire:
      return "timer_fire";
    case EventKind::kFutexWait:
      return "futex_wait";
    case EventKind::kFutexWake:
      return "futex_wake";
    case EventKind::kFutexBucketLock:
      return "futex_bucket_lock";
    case EventKind::kEpollWait:
      return "epoll_wait";
    case EventKind::kEpollPost:
      return "epoll_post";
    case EventKind::kEpollLock:
      return "epoll_lock";
    case EventKind::kVbDecision:
      return "vb_decision";
    case EventKind::kVbPark:
      return "vb_park";
    case EventKind::kVbSkipQuantum:
      return "vb_skip_quantum";
    case EventKind::kVbClear:
      return "vb_clear";
    case EventKind::kBwdSample:
      return "bwd_sample";
    case EventKind::kBwdDesched:
      return "bwd_desched";
    case EventKind::kBwdSkipClear:
      return "bwd_skip_clear";
    case EventKind::kSleep:
      return "sleep";
    case EventKind::kCount:
      break;
  }
  return "?";
}

Tracer::Tracer(const sim::Engine* engine, int n_cores, TraceConfig cfg)
    : engine_(engine), n_cores_(n_cores), ring_capacity_(cfg.ring_capacity) {
  EO_CHECK(engine != nullptr);
  EO_CHECK_GE(n_cores, 1);
  set_enabled(cfg.enabled);
}

void Tracer::set_enabled(bool on) {
  if (on && rings_.empty()) {
    rings_.reserve(static_cast<std::size_t>(n_cores_) + 1);
    for (int i = 0; i <= n_cores_; ++i) rings_.emplace_back(ring_capacity_);
  }
  enabled_ = on;
}

std::uint64_t Tracer::total_events() const {
  std::uint64_t n = 0;
  for (const auto& r : rings_) n += r.size();
  return n;
}

std::uint64_t Tracer::total_dropped() const {
  std::uint64_t n = 0;
  for (const auto& r : rings_) n += r.dropped();
  return n;
}

Trace Tracer::snapshot() const {
  Trace t;
  t.n_cores = n_cores_;
  t.dropped = total_dropped();
  t.events.reserve(total_events());
  for (const auto& r : rings_) r.copy_ordered(&t.events);
  // Each ring is already time-ordered (engine time is monotonic), so a
  // stable sort by timestamp yields a deterministic merge: ties keep ring
  // order (core 0 .. N, ambient last) and per-ring emission order.
  std::stable_sort(
      t.events.begin(), t.events.end(),
      [](const TraceEvent& a, const TraceEvent& b) { return a.ts < b.ts; });
  return t;
}

}  // namespace eo::trace
