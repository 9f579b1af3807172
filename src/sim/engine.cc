#include "sim/engine.h"

#include <limits>

namespace eo::sim {

std::uint32_t Engine::grow_slab() {
  if ((n_slots_ & (kChunkSize - 1)) == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return n_slots_++;
}

void Engine::sift_down(const HeapEntry& e) {
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], e)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = e;
}

void Engine::pop_top() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // The old last leaf nearly always belongs near the bottom again, so walk
  // the root's hole down to a leaf along the smaller children (one compare
  // per level, not two) and sift `last` up from there.
  std::size_t i = 0;
  for (std::size_t child = 1; child < n; child = 2 * i + 1) {
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    heap_[i] = heap_[child];
    i = child;
  }
  sift_up(i, last);
}

EventId Engine::schedule_periodic(SimDuration first_delay, SimDuration period,
                                  EventFn fn) {
  EO_CHECK_GE(first_delay, 0);
  EO_CHECK_GT(period, 0);
  return arm(now_ + first_delay, period, std::move(fn));
}

void Engine::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  const auto idx = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (idx >= n_slots_) return;
  Slot& s = slot(idx);
  if (s.gen != gen) return;  // already fired, canceled, or slot reused
  s.fn.reset();              // release captures immediately
  s.period = 0;
  bump_gen(s);
  release_slot(s, idx);
  --live_events_;
}

bool Engine::fire_next(SimTime deadline) {
  for (;;) {
    if (heap_.empty()) return false;
    const HeapEntry top = heap_.front();
    Slot& s = slot(top.slot);
    if (s.gen != top.gen) {
      pop_top();  // stale: canceled (or the slot was since recycled)
      continue;
    }
    if (top.when > deadline) return false;
    now_ = top.when;
    ++fired_;
    if (s.period > 0) {
      // Re-arm in place: same slot, same generation, next occurrence takes
      // its sequence number now — the exact point a self-re-arming callback
      // would schedule it, preserving equal-timestamp insertion order.
      sift_down(HeapEntry{top.when + s.period, next_seq_++, top.slot, top.gen});
      // Borrow the callback for the call: it may cancel its own id (which
      // resets the slot) or schedule events that grow the slab.
      EventFn fn = std::move(s.fn);
      fn();
      if (s.gen == top.gen) s.fn = std::move(fn);
      // else: the callback canceled the timer; the borrowed fn dies here and
      // the re-armed heap entry is skipped as stale when it surfaces.
    } else {
      // Fire in place. The generation moves first, so the callback canceling
      // its own id is a no-op; the slot stays off the free list until the
      // call returns, so nothing the callback schedules can land in it.
      bump_gen(s);
      --live_events_;
      root_spent_ = true;
      s.fn();
      s.fn.reset();
      release_slot(s, top.slot);
      if (root_spent_) {
        root_spent_ = false;  // the callback scheduled nothing
        pop_top();
      }
    }
    return true;
  }
}

std::uint64_t Engine::run_until(SimTime deadline) {
  std::uint64_t n = 0;
  while (fire_next(deadline)) ++n;
  if (now_ < deadline) now_ = deadline;
  return n;
}

std::uint64_t Engine::run() {
  std::uint64_t n = 0;
  const SimTime forever = std::numeric_limits<SimTime>::max();
  while (fire_next(forever)) ++n;
  return n;
}

std::size_t Engine::free_slots() const {
  std::size_t n = 0;
  for (std::uint32_t i = free_head_; i != kNoFreeSlot; i = slot(i).next_free) {
    ++n;
  }
  return n;
}

}  // namespace eo::sim
