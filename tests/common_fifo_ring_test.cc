// FifoRing tests: FIFO order across wraparound, growth re-linearization,
// and the zero-steady-state-allocation contract that justifies replacing
// std::deque on the epoll ready queue.
#include "common/fifo_ring.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "alloc_count.h"

namespace eo {
namespace {

TEST(FifoRing, PushPopPreservesFifoOrderAcrossWraparound) {
  FifoRing<int> q;
  // Oscillate so head_ laps the buffer many times at a small capacity.
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 5; ++i) q.push_back(next_in++);
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(q.front(), next_out++);
      q.pop_front();
    }
  }
  EXPECT_TRUE(q.empty());
  EXPECT_LE(q.capacity(), 16u);  // never needed more than ~6 slots
}

TEST(FifoRing, GrowthRelinearizesAndKeepsOrder) {
  FifoRing<int> q;
  // Misalign head_ first so growth happens mid-wrap.
  for (int i = 0; i < 6; ++i) q.push_back(i);
  for (int i = 0; i < 6; ++i) q.pop_front();
  for (int i = 0; i < 100; ++i) q.push_back(i);  // forces several grows
  EXPECT_EQ(q.size(), 100u);
  EXPECT_EQ(q.capacity(), 128u);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(q.at(static_cast<std::size_t>(i)), i);
  }
}

TEST(FifoRing, SteadyStateIsAllocationFree) {
  FifoRing<std::uint64_t> q;
  q.reserve(64);
  const std::uint64_t n = allocs_during([&] {
    for (int round = 0; round < 1000; ++round) {
      for (std::uint64_t i = 0; i < 64; ++i) q.push_back(i);
      while (!q.empty()) q.pop_front();
    }
  });
  EXPECT_EQ(n, 0u);
}

TEST(FifoRing, PopAndClearDropPayloadReferences) {
  FifoRing<std::shared_ptr<int>> q;
  auto a = std::make_shared<int>(1);
  auto b = std::make_shared<int>(2);
  std::weak_ptr<int> wa = a, wb = b;
  q.push_back(std::move(a));
  q.push_back(std::move(b));
  q.pop_front();
  EXPECT_TRUE(wa.expired());  // popped slot is reset, not just skipped
  q.clear();
  EXPECT_TRUE(wb.expired());
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace eo
