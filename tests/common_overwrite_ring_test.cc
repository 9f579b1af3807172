// OverwriteRing tests: exact oldest-first order before and after the ring
// wraps, drop counting, strided frames, and the allocation contract — the
// ring reserves its storage once, so no push allocates, before or after it
// is full. The tracer's rings and the sampler's series are both this type.
#include "common/overwrite_ring.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_count.h"

namespace eo {
namespace {

std::vector<std::uint64_t> ordered(const OverwriteRing<std::uint64_t>& r) {
  std::vector<std::uint64_t> out;
  r.copy_ordered(&out);
  return out;
}

TEST(OverwriteRing, LargeRingWithFewPushesCopiesExactly) {
  OverwriteRing<std::uint64_t> r(1u << 20);
  for (std::uint64_t i = 0; i < 5; ++i) r.push(100 + i);
  EXPECT_EQ(r.capacity(), 1u << 20);
  EXPECT_EQ(r.size(), 5u);
  EXPECT_EQ(r.dropped(), 0u);
  EXPECT_EQ(ordered(r),
            (std::vector<std::uint64_t>{100, 101, 102, 103, 104}));
}

TEST(OverwriteRing, WrapsOverwritingOldestAndCountsDropped) {
  OverwriteRing<std::uint64_t> r(4);
  for (std::uint64_t i = 0; i < 4; ++i) r.push(i);
  EXPECT_EQ(ordered(r), (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(r.dropped(), 0u);
  for (std::uint64_t i = 4; i < 10; ++i) r.push(i);
  EXPECT_EQ(r.size(), 4u);
  EXPECT_EQ(r.dropped(), 6u);
  // The four newest survive, oldest first.
  EXPECT_EQ(ordered(r), (std::vector<std::uint64_t>{6, 7, 8, 9}));
}

TEST(OverwriteRing, StridedFramesStayWhole) {
  OverwriteRing<int> r(3, /*stride=*/2);
  for (int f = 0; f < 5; ++f) {
    const int frame[2] = {10 * f, 10 * f + 1};
    r.push(frame);
  }
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.dropped(), 2u);
  std::vector<int> out = {-1};  // copy_ordered appends
  r.copy_ordered(&out);
  EXPECT_EQ(out, (std::vector<int>{-1, 20, 21, 30, 31, 40, 41}));
}

TEST(OverwriteRing, PushesNeverAllocate) {
  OverwriteRing<std::uint64_t> r(64);
  OverwriteRing<int> frames(16, /*stride=*/8);
  const int frame[8] = {};
  const std::uint64_t n = allocs_during([&] {
    // Fill and wrap many times.
    for (std::uint64_t i = 0; i < 1000; ++i) r.push(i);
    for (int i = 0; i < 100; ++i) frames.push(frame);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(r.dropped(), 936u);
  EXPECT_EQ(frames.dropped(), 84u);
}

}  // namespace
}  // namespace eo
