// Kernel-lock serialization model.
//
// The paper's wakeup-path analysis hinges on lock *serialization*: the futex
// hash-bucket lock and the per-core runqueue locks force concurrent wakers
// and schedulers through one-at-a-time critical sections. In a
// discrete-event simulation a lock is a resource with a `next_free` time:
// acquiring at time t waits max(0, next_free - t), then occupies it for the
// hold duration. This captures queueing delay (including convoys when many
// wakers hammer one runqueue) without simulating the lock-word cacheline.
//
// The wait-queue locks (futex buckets, epoll instances) are also counted and
// traced; `TracedLocks` is that one acquire path, one per table of queues.
// The runqueue locks are plain `KLock`s.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "trace/trace.h"

namespace eo::kern {

class KLock {
 public:
  /// Acquires at `now`, holding for `hold`. Returns the wait time (0 if the
  /// lock was free); the caller's total cost is wait + hold.
  SimDuration acquire(SimTime now, SimDuration hold) {
    const SimTime start = now > next_free_ ? now : next_free_;
    next_free_ = start + hold;
    return start - now;
  }

 private:
  SimTime next_free_ = 0;
};

/// The counted, traced acquire shared by one table of wait-queue locks:
/// every acquisition bumps `locks`, a contended one (nonzero queueing delay,
/// the paper's wakeup-path serialization) also bumps `contended`, and each
/// emits a `kind` record (arg0 wait ns, arg1 hold ns) on `core`/`tid`. The
/// kernel registers both fields as counters.
class TracedLocks {
 public:
  explicit TracedLocks(trace::EventKind kind) : kind_(kind) {}

  /// Wires the event tracer (may be null).
  void set_tracer(trace::Tracer* t) { tracer_ = t; }

  /// Acquires `lock` at `now` for `hold` and returns the wait time; the
  /// caller's total cost is wait + hold. Inline: this sits on the futex and
  /// epoll fast paths and must cost one predicted branch when tracing is off.
  SimDuration acquire(KLock& lock, SimTime now, SimDuration hold, int core,
                      std::int32_t tid) {
    const SimDuration wait = lock.acquire(now, hold);
    ++locks;
    if (wait > 0) ++contended;
    EO_TRACE_EVENT(tracer_, core, kind_, tid, static_cast<std::uint64_t>(wait),
                   static_cast<std::uint64_t>(hold));
    return wait;
  }

  std::uint64_t locks = 0;
  std::uint64_t contended = 0;

 private:
  trace::EventKind kind_;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace eo::kern
