// Futex subsystem data structures.
//
// Mirrors the kernel futex design in Figure 5 of the paper: user-level
// words hash to buckets, each bucket has a lock and a FIFO queue of waiters.
// Under vanilla blocking a waiter is removed from the CPU runqueue and
// sleeps on the bucket; under virtual blocking it stays on the runqueue,
// flagged, and the bucket queue only preserves sleep/wakeup *order*.
//
// The wait/wake orchestration (scheduling, costs, wake chains) lives in the
// Kernel; this module owns the table so it can be unit-tested standalone.
#pragma once

#include <cstdint>
#include <vector>

#include "futex/waiter_link.h"
#include "kern/klock.h"

namespace eo::kern {
struct Task;
class SimWord;
}  // namespace eo::kern

namespace eo::futex {

struct Bucket {
  kern::KLock lock;
  /// Intrusive FIFO of WaiterLinks embedded in the waiting tasks: enqueue,
  /// dequeue, and wake-time splice are pointer operations with no heap
  /// traffic (each bucket used to own a std::deque).
  WaiterList waiters;
};

class FutexTable {
 public:
  explicit FutexTable(std::size_t n_buckets = 256);

  /// The bucket locks' counted, traced acquire (kFutexBucketLock records:
  /// the paper's wakeup-path serialization cost).
  kern::TracedLocks& locks() { return locks_; }

  /// The bucket a word hashes to (stable for the word's lifetime).
  Bucket& bucket_for(const kern::SimWord* word);

 private:
  std::vector<Bucket> buckets_;
  kern::TracedLocks locks_{trace::EventKind::kFutexBucketLock};
};

}  // namespace eo::futex
