#include "kern/klock.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "sim/engine.h"
#include "trace/trace.h"

namespace eo::kern {
namespace {

TEST(KLock, FreeLockNoWait) {
  KLock l;
  EXPECT_EQ(l.acquire(100, 50), 0);
  EXPECT_EQ(l.acquire(150, 50), 0);  // free again once the hold ends
}

TEST(KLock, SerializesOverlappingAcquires) {
  KLock l;
  EXPECT_EQ(l.acquire(0, 100), 0);    // holds [0, 100)
  EXPECT_EQ(l.acquire(30, 100), 70);  // waits until 100, holds [100, 200)
  EXPECT_EQ(l.acquire(50, 100), 150); // waits until 200
}

TEST(KLock, NoContentionAfterRelease) {
  KLock l;
  l.acquire(0, 100);
  EXPECT_EQ(l.acquire(500, 100), 0);
}

TEST(KLock, ConvoyAccumulates) {
  // N back-to-back acquirers at the same instant: the k-th waits k*hold.
  KLock l;
  for (int k = 0; k < 10; ++k) {
    EXPECT_EQ(l.acquire(1000, 200), k * 200);
  }
}

TEST(TracedLocks, CountsEveryAcquireAndTracesWaitAndHold) {
  // The one acquire path of the futex-bucket and epoll-instance locks: each
  // acquisition counts, a contended one counts again, and each leaves one
  // record of the table's kind carrying the wait and the hold.
  sim::Engine engine;
  trace::TraceConfig tc;
  tc.enabled = true;
  trace::Tracer tracer(&engine, 2, tc);
  TracedLocks locks(trace::EventKind::kEpollLock);
  locks.set_tracer(&tracer);
  KLock l;
  EXPECT_EQ(locks.acquire(l, 0, 100, 1, 7), 0);
  EXPECT_EQ(locks.acquire(l, 30, 50, 1, 8), 70);
  EXPECT_EQ(locks.acquire(l, 500, 50, 1, 9), 0);
  EXPECT_EQ(locks.locks, 3u);
  EXPECT_EQ(locks.contended, 1u);
  const trace::Trace t = tracer.snapshot();
  ASSERT_EQ(t.events.size(), 3u);
  const std::int32_t tids[] = {7, 8, 9};
  const std::uint64_t waits[] = {0, 70, 0};
  const std::uint64_t holds[] = {100, 50, 50};
  for (std::size_t i = 0; i < 3; ++i) {
    const trace::TraceEvent& e = t.events[i];
    EXPECT_EQ(e.kind, static_cast<std::uint16_t>(trace::EventKind::kEpollLock));
    EXPECT_EQ(e.core, 1);
    EXPECT_EQ(e.tid, tids[i]);
    EXPECT_EQ(e.arg0, waits[i]);
    EXPECT_EQ(e.arg1, holds[i]);
  }
}

}  // namespace
}  // namespace eo::kern
