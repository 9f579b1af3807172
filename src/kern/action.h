// Actions: the syscall/instruction interface between simulated threads and
// the simulated kernel.
//
// A simulated thread is a C++20 coroutine. When it needs simulated time to
// pass — computing, spinning, blocking — it co_awaits an awaitable that
// stores one of these Action values on its Task and suspends; the kernel
// interprets the action, advances simulated time, and eventually resumes the
// coroutine with a result. Work that takes no simulated time (atomic
// instructions, memory-profile switches) is an InlineAction instead: the
// awaitable runs it through Kernel::perform_inline without suspending, and
// its cost only accumulates on the task until the next scheduling boundary.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "common/units.h"
#include "hw/cache_model.h"
#include "hw/instr_stream.h"
#include "hw/lbr.h"

namespace eo::kern {

struct Task;

/// A simulated shared-memory word. Workload code never touches the value
/// directly; all access goes through atomic actions so the kernel can notify
/// spinners on stores. The simulation is single-threaded, so atomicity is by
/// construction; the action cost models the instruction latency.
class SimWord {
 public:
  std::uint64_t peek() const { return value_; }
  /// Stable per-kernel id (allocation order); used as the futex hash key so
  /// runs are independent of heap addresses.
  std::uint64_t id() const { return id_; }

 private:
  friend class Kernel;
  std::uint64_t id_ = 0;
  std::uint64_t value_ = 0;
  /// Tasks queued in this word's futex bucket waiting on this word (the
  /// bucket is shared by hash; the VB decision counts only this word's).
  int futex_waiters_ = 0;
  /// Tasks currently spinning on this word *while running on a core*.
  std::vector<Task*> running_spinners_;
};

enum class AtomicOp {
  kLoad,
  kStore,         ///< operand a = value
  kExchange,      ///< operand a = new value; result = old
  kCompareSwap,   ///< a = expected, b = desired; result = 1 on success
  kFetchAdd,      ///< a = addend; result = old value
};

/// Run `duration` of computation. `duration` is work at the calibration
/// rate; the kernel converts it to wall time using the task's memory profile
/// and charges context-switch / migration penalties on resumption.
struct ComputeAction {
  SimDuration duration = 0;
  hw::SegmentKind kind = hw::SegmentKind::kRegular;
  /// Branch site for kTightLoop segments (feeds the LBR model).
  hw::BranchSite site = hw::kVariedSites;
  /// Internal: wall-time remaining; <0 until the kernel initializes it.
  SimDuration remaining_wall = -1;
};

struct AtomicAction {
  SimWord* word = nullptr;
  AtomicOp op = AtomicOp::kLoad;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Predicate over a SimWord value for spin loops, as a flat value type.
///
/// Spin setup is one of the simulator's hottest paths (every lock acquisition
/// and barrier wait issues one); a `std::function` here heap-allocated on the
/// host for every capturing predicate. The common comparisons are expressed
/// as a kind enum, and anything richer goes through a capture-free function
/// pointer with one 64-bit argument — no allocation in either case.
class SpinPredicate {
 public:
  using Fn = bool (*)(std::uint64_t value, std::uint64_t arg);

  /// Default: "until nonzero" (never relied upon; actions always set one).
  constexpr SpinPredicate() : SpinPredicate(Kind::kNe, 0, 0, nullptr) {}

  static constexpr SpinPredicate eq(std::uint64_t v) {
    return {Kind::kEq, v, 0, nullptr};
  }
  static constexpr SpinPredicate ne(std::uint64_t v) {
    return {Kind::kNe, v, 0, nullptr};
  }
  static constexpr SpinPredicate ge(std::uint64_t v) {
    return {Kind::kGe, v, 0, nullptr};
  }
  /// True when `(value & mask) == want`.
  static constexpr SpinPredicate masked_eq(std::uint64_t mask,
                                           std::uint64_t want) {
    return {Kind::kMaskedEq, want, mask, nullptr};
  }
  /// Escape hatch for shapes the enum does not cover; `fn` must be a plain
  /// function (or capture-free lambda) and receives `arg` alongside the value.
  static constexpr SpinPredicate fn(Fn f, std::uint64_t arg = 0) {
    return {Kind::kFn, arg, 0, f};
  }

  bool operator()(std::uint64_t value) const {
    switch (kind_) {
      case Kind::kEq:
        return value == a_;
      case Kind::kNe:
        return value != a_;
      case Kind::kGe:
        return value >= a_;
      case Kind::kMaskedEq:
        return (value & b_) == a_;
      case Kind::kFn:
        return fn_(value, a_);
    }
    return false;
  }

 private:
  enum class Kind : std::uint8_t { kEq, kNe, kGe, kMaskedEq, kFn };

  constexpr SpinPredicate(Kind k, std::uint64_t a, std::uint64_t b, Fn f)
      : kind_(k), a_(a), b_(b), fn_(f) {}

  Kind kind_;
  std::uint64_t a_;
  std::uint64_t b_;
  Fn fn_;
};

/// Busy-wait until `pred(word value)` is true. The task occupies its core
/// while spinning (this is the pathology BWD addresses).
struct SpinUntilAction {
  SimWord* word = nullptr;
  SpinPredicate pred;
  hw::BranchSite site = 0;
  /// Body contains PAUSE/NOP (visible to PLE in VM mode).
  bool uses_pause = false;
  /// Absolute give-up time (< 0 = spin forever). A timed-out spin resumes
  /// with result 0; success resumes with 1. Used by spin-then-park locks.
  SimTime deadline = -1;
  /// Internal: an exit event is already scheduled for this spinner.
  bool exit_scheduled = false;
  /// Internal: accumulated PLE exit overhead to charge on spin exit.
  SimDuration ple_overhead = 0;
};

/// futex(FUTEX_WAIT): block if *word == expected. Result: 0 = woken,
/// 1 = EWOULDBLOCK (value changed).
struct FutexWaitAction {
  SimWord* word = nullptr;
  std::uint64_t expected = 0;
};

/// futex(FUTEX_WAKE): wake up to n waiters. Result: number woken.
struct FutexWakeAction {
  SimWord* word = nullptr;
  int n = 1;
};

/// epoll_wait: block until an event is available. Result: the event payload.
struct EpollWaitAction {
  int epfd = -1;
};

/// Post an event to an epoll instance (e.g. a request arriving on a
/// connection). Result: none.
struct EpollPostAction {
  int epfd = -1;
  std::uint64_t data = 0;
};

/// sched_yield().
struct YieldAction {};

/// nanosleep(duration) — real timed sleep, off the runqueue.
struct SleepAction {
  SimDuration duration = 0;
};

/// Switch the task's memory profile (entering a new program phase).
struct SetMemProfileAction {
  hw::MemProfile profile;
};

/// Thread termination (issued by the coroutine's final suspend).
struct ExitAction {};

/// Work that lets simulated time pass; stored on the Task while the kernel
/// interprets it.
using Action =
    std::variant<std::monostate, ComputeAction, SpinUntilAction,
                 FutexWaitAction, FutexWakeAction, EpollWaitAction,
                 EpollPostAction, YieldAction, SleepAction, ExitAction>;

/// Work that takes no simulated time; run in place by Kernel::perform_inline.
using InlineAction = std::variant<AtomicAction, SetMemProfileAction>;

}  // namespace eo::kern
