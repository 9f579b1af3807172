// Env: the simulated thread's view of the machine.
//
// Every awaitable a workload can issue is built here. Env is a cheap value
// (kernel + task pointers) passed by value into coroutines.
#pragma once

#include <cstdint>
#include <functional>

#include "common/units.h"
#include "hw/cache_model.h"
#include "hw/instr_stream.h"
#include "hw/lbr.h"
#include "kern/action.h"
#include "kern/kernel.h"
#include "kern/task.h"
#include "runtime/coro.h"

namespace eo::runtime {

class Env {
 public:
  Env(kern::Kernel* k, kern::Task* t) : k_(k), t_(t) {}

  kern::Kernel& kernel() const { return *k_; }
  kern::Task& task() const { return *t_; }
  SimTime now() const { return k_->now(); }
  int tid() const { return t_->tid; }

  /// Allocates a simulated shared word (lives as long as the kernel).
  kern::SimWord* word(std::uint64_t init = 0) const {
    return k_->alloc_word(init);
  }

  // --- execution ---
  /// Runs `work` of computation (calibrated-rate nanoseconds).
  ActionAwaiter compute(SimDuration work,
                        hw::SegmentKind kind = hw::SegmentKind::kRegular,
                        hw::BranchSite site = hw::kVariedSites) const {
    return {t_, std::in_place_type<kern::ComputeAction>, work, kind, site,
            SimDuration{-1}};
  }

  /// Runs a tight register-resident loop (the BWD false-positive shape).
  ActionAwaiter tight_loop(SimDuration work, hw::BranchSite site) const {
    return {t_, std::in_place_type<kern::ComputeAction>, work,
            hw::SegmentKind::kTightLoop, site, SimDuration{-1}};
  }

  // --- atomics (take no simulated time; the coroutine does not suspend) ---
  InlineAwaiter load(kern::SimWord* w) const {
    return atomic(w, kern::AtomicOp::kLoad, 0, 0);
  }
  InlineAwaiter store(kern::SimWord* w, std::uint64_t v) const {
    return atomic(w, kern::AtomicOp::kStore, v, 0);
  }
  /// Returns 1 on success, 0 on failure.
  InlineAwaiter cas(kern::SimWord* w, std::uint64_t expected,
                    std::uint64_t desired) const {
    return atomic(w, kern::AtomicOp::kCompareSwap, expected, desired);
  }
  /// Returns the previous value.
  InlineAwaiter exchange(kern::SimWord* w, std::uint64_t v) const {
    return atomic(w, kern::AtomicOp::kExchange, v, 0);
  }
  /// Returns the previous value.
  InlineAwaiter fetch_add(kern::SimWord* w, std::uint64_t v) const {
    return atomic(w, kern::AtomicOp::kFetchAdd, v, 0);
  }

  // --- busy waiting ---
  /// Spins until `pred(word value)` holds. `site` identifies the static spin
  /// loop (for the LBR model); `uses_pause` marks PAUSE/NOP-based bodies
  /// (visible to PLE in VM mode). `pred` is a flat kern::SpinPredicate value
  /// (eq/ne/ge/masked_eq or a function pointer) — no per-spin allocation.
  ActionAwaiter spin_until(kern::SimWord* w, kern::SpinPredicate pred,
                           hw::BranchSite site, bool uses_pause = false) const {
    return {t_, std::in_place_type<kern::SpinUntilAction>, w, pred, site,
            uses_pause, SimTime{-1}, false, SimDuration{0}};
  }

  /// Bounded spin: gives up after `timeout`; resumes with 1 on success, 0 on
  /// timeout (the spin-then-park pattern of Mutexee / MCS-TP / SHFLLOCK).
  ActionAwaiter spin_until_timeout(kern::SimWord* w, kern::SpinPredicate pred,
                                   hw::BranchSite site, SimDuration timeout,
                                   bool uses_pause = false) const {
    return {t_, std::in_place_type<kern::SpinUntilAction>, w, pred, site,
            uses_pause, k_->now() + timeout, false, SimDuration{0}};
  }
  /// Convenience: spin until the word equals `v`.
  ActionAwaiter spin_until_eq(kern::SimWord* w, std::uint64_t v,
                              hw::BranchSite site,
                              bool uses_pause = false) const {
    return spin_until(w, kern::SpinPredicate::eq(v), site, uses_pause);
  }

  // --- blocking ---
  /// Returns 0 if woken by futex_wake, 1 on EWOULDBLOCK.
  ActionAwaiter futex_wait(kern::SimWord* w, std::uint64_t expected) const {
    return {t_, std::in_place_type<kern::FutexWaitAction>, w, expected};
  }
  /// Returns the number of waiters woken.
  ActionAwaiter futex_wake(kern::SimWord* w, int n) const {
    return {t_, std::in_place_type<kern::FutexWakeAction>, w, n};
  }
  static constexpr int kWakeAll = 1 << 20;

  /// Returns the posted event payload.
  ActionAwaiter epoll_wait(int epfd) const {
    return {t_, std::in_place_type<kern::EpollWaitAction>, epfd};
  }
  ActionAwaiter epoll_post(int epfd, std::uint64_t data) const {
    return {t_, std::in_place_type<kern::EpollPostAction>, epfd, data};
  }

  // --- scheduling ---
  ActionAwaiter yield() const {
    return {t_, std::in_place_type<kern::YieldAction>};
  }
  ActionAwaiter sleep(SimDuration d) const {
    return {t_, std::in_place_type<kern::SleepAction>, d};
  }
  InlineAwaiter set_mem_profile(const hw::MemProfile& p) const {
    return {k_, t_, kern::SetMemProfileAction{p}};
  }

 private:
  InlineAwaiter atomic(kern::SimWord* w, kern::AtomicOp op, std::uint64_t a,
                       std::uint64_t b) const {
    return {k_, t_, kern::AtomicAction{w, op, a, b}};
  }

  kern::Kernel* k_;
  kern::Task* t_;
};

}  // namespace eo::runtime
