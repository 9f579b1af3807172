// Epoll subsystem data structures.
//
// Models event-based blocking as used by memcached/libevent: an epoll
// instance accumulates ready events; epoll_wait consumes one or blocks.
// Waiters block either by vanilla sleep or — with VB enabled for epoll, as
// the paper implemented ("we implemented VB in epoll by removing the sleep
// queue and emulating sleeping via schedule skipping") — by VB parking.
//
// An instance's wait queue is the futex one: a KLock plus an intrusive
// futex::WaiterList of the blocked tasks' embedded links, each carrying the
// vb choice made at wait time. As with futex, orchestration lives in the
// Kernel; this module owns the instance table.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/fifo_ring.h"
#include "futex/waiter_link.h"
#include "kern/klock.h"

namespace eo::epollsim {

struct EpollInstance {
  kern::KLock lock;
  /// Posted-but-unconsumed event payloads (FIFO). A ring, not a deque: the
  /// open-loop serving path posts and consumes millions of events per run,
  /// and deque block churn would put heap traffic on every request.
  FifoRing<std::uint64_t> ready;
  /// Tasks blocked in epoll_wait, oldest first (their embedded links).
  futex::WaiterList waiters;
};

class EpollTable {
 public:
  /// The instance locks' counted, traced acquire (kEpollLock records).
  kern::TracedLocks& locks() { return locks_; }

  /// Creates a new instance; returns its fd.
  int create();

  EpollInstance& get(int epfd);

 private:
  /// One heap object per instance: a WaiterList pins its address, and a
  /// kernel that never calls epoll_create allocates nothing here.
  std::vector<std::unique_ptr<EpollInstance>> instances_;
  kern::TracedLocks locks_{trace::EventKind::kEpollLock};
};

}  // namespace eo::epollsim
