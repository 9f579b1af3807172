#include "futex/futex.h"

#include "common/logging.h"
#include "kern/action.h"

namespace eo::futex {

FutexTable::FutexTable(std::size_t n_buckets) : buckets_(n_buckets) {
  EO_CHECK_GT(n_buckets, 0u);
}

Bucket& FutexTable::bucket_for(const kern::SimWord* word) {
  // Hash the stable word id (the kernel hashes the futex's physical
  // address; a heap pointer would make runs depend on allocator layout).
  std::uint64_t h = word->id();
  // Full splitmix64 finalizer: sequential ids must spread across buckets.
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  h ^= h >> 31;
  return buckets_[h % buckets_.size()];
}

}  // namespace eo::futex
