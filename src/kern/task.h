// Simulated task (thread).
//
// The analogue of `task_struct`: identity, run state, the embedded
// scheduling entity, the coroutine driving the thread's program, the pending
// action being interpreted by the kernel, and per-task statistics.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <string>

#include "common/units.h"
#include "futex/waiter_link.h"
#include "hw/cache_model.h"
#include "kern/action.h"
#include "obs/taskstats.h"
#include "sched/entity.h"

namespace eo::kern {

struct TaskStats {
  SimDuration cpu_time = 0;  ///< wall time on a core (incl. spinning)
  std::uint64_t voluntary_switches = 0;
};

struct Task {
  Task(int tid_in, std::string name_in) : tid(tid_in), name(std::move(name_in)) {
    se.task = this;
    se.tid = tid_in;
    waiter.task = this;
  }
  ~Task() {
    if (top) top.destroy();
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  int tid;
  std::string name;
  sched::SchedEntity se;

  /// Owning handle of the thread's top-level coroutine.
  std::coroutine_handle<> top;
  /// Innermost suspended coroutine; what the kernel resumes.
  std::coroutine_handle<> resume_point;

  /// Action awaiting kernel interpretation.
  Action pending;
  /// Result delivered to the awaitable's await_resume.
  std::uint64_t action_result = 0;

  /// Cost of operations that take no simulated time (atomics, spin checks,
  /// futex setup, timer interrupts), charged to the scheduler's accounting
  /// (vruntime, sum_exec) at the next scheduling boundary. It moves neither
  /// the clock nor stats.cpu_time.
  SimDuration overhead = 0;
  /// One-shot penalty (cache refill after context switch / migration)
  /// charged when the task next runs.
  SimDuration resume_penalty = 0;

  /// Memory behaviour of the current program phase.
  hw::MemProfile mem;

  int last_cpu = -1;
  bool pinned = false;
  int pin_cpu = -1;

  /// Set while the kernel is executing an asynchronous wake chain on this
  /// task's behalf (non-preemptible, as kernel code is).
  bool in_kernel = false;

  /// Intrusive wait-queue membership: spliced into a futex bucket, an epoll
  /// instance, or an in-flight WakeChain (at most one at a time). The
  /// link's vb flag is the blocking mode chosen at wait time.
  futex::WaiterLink waiter;

  /// The futex word the task waits on (matched by futex_wake).
  SimWord* wait_word = nullptr;
  /// Time the task last became runnable after an unblock; -1 when it has
  /// already run since. Feeds the wakeup-latency histogram and trace.
  SimTime runnable_since = -1;

  TaskStats stats;

  /// The task's one state: not started, then exactly one
  /// obs::TaskDelayState at every instant, then finished. Kernel::set_state
  /// is the one transition point; it charges the interval since the last
  /// transition to the state being left, so the per-state times sum to the
  /// lifetime by construction.
  obs::TaskDelayAcct delay;

  /// Keeps the thread-function object (lambda captures) alive for the
  /// coroutine frame's lifetime.
  std::shared_ptr<void> keepalive;

  bool exited() const { return delay.finished(); }
  /// On a core: scheduled in and not exited.
  bool running() const {
    return delay.alive() && delay.state() == obs::TaskDelayState::kOncpu;
  }
  /// Off every runqueue: futex- or epoll-blocked, or in a timed sleep.
  bool blocked() const {
    if (!delay.alive()) return false;
    const obs::TaskDelayState s = delay.state();
    return s == obs::TaskDelayState::kFutexBlocked ||
           s == obs::TaskDelayState::kEpollBlocked ||
           s == obs::TaskDelayState::kSleeping;
  }
};

}  // namespace eo::kern
