// Intrusive waiter links: the one wait-queue mechanism of the kernel.
//
// A blocked task sits on exactly one wait queue at a time (a futex bucket,
// an epoll instance, or an in-flight wake chain), so each Task embeds a
// single WaiterLink and queue membership is a pointer splice: no node
// allocation, no deque block churn, O(1) enqueue/dequeue/erase. This is the
// classic kernel `futex_q`/`wait_queue_entry` layout and what drives the
// futex and epoll round trips and the context-switch micros to their
// ns/item floor.
//
// The link carries the owning task pointer and the vb flag explicitly
// (rather than recovering the Task via offsetof) so a WaiterList can be
// walked without knowing the embedding offset, and so the vb decision made
// at wait time travels with the waiter from the futex bucket or epoll
// instance into the wake chain.
#pragma once

#include <cstddef>

#include "common/logging.h"

namespace eo::kern {
struct Task;
}  // namespace eo::kern

namespace eo::futex {

/// One waiter: embedded in Task, spliced into at most one WaiterList.
/// Detached links point at themselves (never null), so detach is
/// unconditional and double-detach is harmless.
struct WaiterLink {
  WaiterLink* next = nullptr;
  WaiterLink* prev = nullptr;
  kern::Task* task = nullptr;
  /// Waiting via virtual blocking (still on its runqueue) rather than asleep.
  bool vb = false;
};

/// FIFO list of WaiterLinks around a sentinel node. Not copyable or movable:
/// the sentinel's self-pointers pin the list's address (buckets live in a
/// never-reallocated vector, epoll instances on the heap one by one, wake
/// chains in a deque).
class WaiterList {
 public:
  WaiterList() { reset(); }
  WaiterList(const WaiterList&) = delete;
  WaiterList& operator=(const WaiterList&) = delete;

  bool empty() const { return head_.next == &head_; }
  std::size_t size() const { return size_; }

  /// Enqueues at the tail. The link must be detached.
  void push_back(WaiterLink* n) {
    EO_CHECK(detached(n));
    n->prev = head_.prev;
    n->next = &head_;
    head_.prev->next = n;
    head_.prev = n;
    ++size_;
  }

  WaiterLink* front() { return head_.next; }
  const WaiterLink* front() const { return head_.next; }

  /// Detaches and returns the head waiter; the list must be non-empty.
  WaiterLink* pop_front() {
    EO_CHECK(!empty());
    WaiterLink* n = head_.next;
    erase(n);
    return n;
  }

  /// Unlinks `n` from this list (it must be on it), leaving it detached.
  void erase(WaiterLink* n) {
    EO_CHECK(!detached(n));
    n->prev->next = n->next;
    n->next->prev = n->prev;
    n->next = n;
    n->prev = n;
    --size_;
  }

  /// True when the link is on no list. A default-constructed link (null
  /// pointers) counts as detached.
  static bool detached(const WaiterLink* n) {
    return n->next == n || n->next == nullptr;
  }

  /// Iteration bounds: `for (auto* l = list.begin_link(); l != list.end_link();
  /// l = l->next)`. The sentinel carries no task.
  WaiterLink* begin_link() { return head_.next; }
  const WaiterLink* begin_link() const { return head_.next; }
  const WaiterLink* end_link() const { return &head_; }

 private:
  void reset() {
    head_.next = &head_;
    head_.prev = &head_;
    size_ = 0;
  }

  WaiterLink head_;  ///< sentinel; task/vb unused
  std::size_t size_ = 0;
};

}  // namespace eo::futex
