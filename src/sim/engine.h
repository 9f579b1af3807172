// Discrete-event simulation engine.
//
// The engine owns the simulated clock and a min-heap of pending events. All
// kernel activity (scheduler ticks, timer interrupts, compute completions,
// wakeups) is expressed as events. The engine is strictly single-threaded:
// one engine per simulated machine, and benches parallelize across engines,
// never within one.
//
// Hot-path layout (see src/sim/README.md for the full story):
//
//  * Callbacks are `EventFn` — inline small-buffer callables. `schedule_at`
//    and `schedule_after` are templates that build the callable straight
//    into its slot, so scheduling a kernel lambda (`[this, &c]`-shaped
//    captures) performs no heap allocation and no callback relocation, and
//    a one-shot event is invoked from its slot too.
//  * Event state lives in a slab of slots recycled through a free list;
//    `EventId` encodes (slot index, generation), so `cancel` and the
//    fired-check are two array accesses — no hashing, no lazy tombstone set.
//    Stale heap entries (canceled or re-armed slots) are recognized by a
//    generation mismatch and skipped when popped.
//  * The heap is the engine's own binary heap of 24-byte PODs keyed on
//    (when, seq). A firing one-shot leaves its spent entry at the root while
//    its callback runs; the first event the callback schedules overwrites
//    the root and sifts down once, fusing the pop with the push. A periodic
//    event (`schedule_periodic`) re-arms by rewriting the root in place: one
//    slot and one callback for the lifetime of the timer.
//
// Determinism: events at equal timestamps fire in insertion order (a
// monotonically increasing sequence number breaks ties), so a run is a pure
// function of the configuration and RNG seeds. (when, seq) is a strict total
// order, so any correct min-heap fires the same sequence. A periodic event's
// next occurrence takes its sequence number at fire time, immediately before
// the callback runs — exactly where a self-re-arming callback would schedule
// it, so the periodic path is order-identical to that pattern.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/units.h"
#include "sim/event_fn.h"

namespace eo::sim {

/// Identifies a scheduled event so it can be canceled: bits [0,32) are the
/// slab slot index, bits [32,64) the slot's generation at arming time.
/// Generations start at 1, so no valid id equals kInvalidEvent.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Single-threaded discrete-event executor.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` (any `void()` callable, or an EventFn) to run at
  /// absolute time `when` (>= now). Returns an id usable with `cancel`.
  template <class F>
  EventId schedule_at(SimTime when, F&& fn) {
    EO_CHECK_GE(when, now_) << "event scheduled in the past";
    return arm(when, 0, std::forward<F>(fn));
  }

  /// Schedules `fn` to run `delay` nanoseconds from now.
  template <class F>
  EventId schedule_after(SimDuration delay, F&& fn) {
    EO_CHECK_GE(delay, 0);
    return arm(now_ + delay, 0, std::forward<F>(fn));
  }

  /// Schedules `fn` to run every `period` nanoseconds, first at
  /// now + first_delay, re-arming in place until canceled. The next
  /// occurrence is armed immediately before each fire, so the callback may
  /// cancel its own id to stop the timer. Counts as one pending event.
  EventId schedule_periodic(SimDuration first_delay, SimDuration period,
                            EventFn fn);

  /// Cancels a pending event (one-shot or periodic). O(1): bumps the slot's
  /// generation so the heap entry is skipped when popped, and recycles the
  /// slot. Canceling an already-fired or invalid id is a no-op.
  void cancel(EventId id);

  /// Runs events until the queue is empty or `deadline` is passed. The clock
  /// is left at the time of the last fired event (or `deadline` if it is
  /// reached). Returns the number of events fired.
  std::uint64_t run_until(SimTime deadline);

  /// Runs until the event queue drains completely. Never returns while a
  /// periodic event is armed.
  std::uint64_t run();

  /// True if any event (not canceled) is pending.
  bool has_pending() const { return live_events_ > 0; }

  /// Number of events fired since construction (each periodic fire counts).
  std::uint64_t events_fired() const { return fired_; }

  // --- slab introspection (tests and diagnostics) ---
  /// Slots ever allocated; bounded by the peak number of concurrently
  /// pending events, not by throughput.
  std::size_t slab_slots() const { return n_slots_; }
  /// Slots currently on the free list.
  std::size_t free_slots() const;

 private:
  // Chunked so slot references stay stable while the slab grows (a callback
  // runs from, or borrowed from, its slot; growth must not move slots).
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;

  struct Slot {
    EventFn fn;
    SimDuration period = 0;  ///< > 0 while armed periodic
    /// Bumped on every disarm (fire or cancel); a heap entry is live iff its
    /// recorded generation equals the slot's. Starts at 1 and skips 0 on
    /// wrap so ids never collide with kInvalidEvent.
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNoFreeSlot;  ///< valid while on the free list
  };

  /// Heap entries are flat PODs; the callback stays in the slab and is never
  /// touched by sifts.
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;  ///< insertion order, breaks equal-timestamp ties
    std::uint32_t slot;
    std::uint32_t gen;
  };
  /// The heap order: earlier time first, earlier insertion on a tie.
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }

  Slot& slot(std::uint32_t i) {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }
  const Slot& slot(std::uint32_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }
  static EventId make_id(std::uint32_t idx, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | idx;
  }

  std::uint32_t alloc_slot() {
    if (free_head_ == kNoFreeSlot) return grow_slab();
    const std::uint32_t idx = free_head_;
    free_head_ = slot(idx).next_free;
    return idx;
  }
  std::uint32_t grow_slab();
  /// Invalidates every id and heap entry minted for the slot's arming.
  /// Skipping 0 on wrap keeps make_id() != kInvalidEvent; a stale entry
  /// colliding after a full 2^32 reuse cycle of one slot is beyond any
  /// simulated horizon.
  static void bump_gen(Slot& s) {
    if (++s.gen == 0) s.gen = 1;
  }
  void release_slot(Slot& s, std::uint32_t idx) {
    s.next_free = free_head_;
    free_head_ = idx;
  }

  /// Arms a slot with `fn` built in place, and pushes its heap entry.
  template <class F>
  EventId arm(SimTime when, SimDuration period, F&& fn) {
    const std::uint32_t idx = alloc_slot();
    Slot& s = slot(idx);
    s.fn.assign(std::forward<F>(fn));
    EO_CHECK(s.fn) << "empty event callback";
    s.period = period;
    push(HeapEntry{when, next_seq_++, idx, s.gen});
    ++live_events_;
    return make_id(idx, s.gen);
  }

  /// Adds `e` to the heap. While a one-shot's callback runs, the first push
  /// takes over its spent root entry: one sift-down instead of a pop plus a
  /// sift-up push.
  void push(const HeapEntry& e) {
    if (root_spent_) {
      root_spent_ = false;
      sift_down(e);
      return;
    }
    heap_.push_back(e);
    sift_up(heap_.size() - 1, e);
  }
  /// Places `e` at the hole `i` or above it, moving parents down.
  void sift_up(std::size_t i, const HeapEntry& e) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }
  /// Places `e` at the root, replacing the entry there, and sifts it down.
  void sift_down(const HeapEntry& e);
  /// Removes the root entry.
  void pop_top();
  /// Fires the heap head if it is live and due by `deadline`. Returns false
  /// when the head is past the deadline or the heap is empty (stale entries
  /// are drained so the caller's emptiness/peek checks see a live event).
  bool fire_next(SimTime deadline);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  std::uint64_t live_events_ = 0;
  /// Binary min-heap under `before`; heap_[0] is the next event.
  std::vector<HeapEntry> heap_;
  /// True while a fired one-shot's callback runs: heap_[0] is its spent
  /// entry, to be overwritten by the next push or popped after the call.
  bool root_spent_ = false;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t n_slots_ = 0;
  std::uint32_t free_head_ = kNoFreeSlot;
};

}  // namespace eo::sim
