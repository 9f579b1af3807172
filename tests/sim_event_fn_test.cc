// EventFn unit tests: the inline-vs-overflow capture-size contract, move
// semantics, and — via the allocation-counting harness (alloc_count.h) — the
// engine's guarantee that schedule/cancel/fire perform no heap allocation
// for callbacks within inline capacity once the slab and heap are warm.
#include "sim/event_fn.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <utility>

#include "alloc_count.h"
#include "sim/engine.h"

namespace eo::sim {
namespace {

TEST(EventFn, InlineCapacityIsThreeWords) {
  EXPECT_EQ(EventFn::kInlineSize, 3 * sizeof(void*));
  EXPECT_EQ(sizeof(EventFn), 4 * sizeof(void*));
}

TEST(EventFn, PointerCapturesAreInlineAndAllocationFree) {
  int target = 0;
  int* p = &target;
  const std::uint64_t n = allocs_during([&] {
    EventFn f([p] { *p += 7; });  // one-word capture: the kernel's shape
    ASSERT_TRUE(f.is_inline());
    f();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(target, 7);
}

TEST(EventFn, CaptureAtExactCapacityIsInline) {
  std::uint64_t a = 1, b = 2, c = 3;
  std::uint64_t sum = 0;
  std::uint64_t* out = &sum;
  // Three words, the documented limit (one slot is spent on `out`'s word
  // being part of the three: a, b, out — exactly 24 bytes).
  EventFn f([a, b, out] { *out = a + b; });
  EXPECT_TRUE(f.is_inline());
  f();
  EXPECT_EQ(sum, 3u);
  (void)c;
}

TEST(EventFn, OversizeCaptureOverflowsToHeapAndStillWorks) {
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  std::uint64_t sum = 0;
  std::uint64_t* out = &sum;
  std::uint64_t n = 0;
  {
    EventFn f;
    n = allocs_during([&] {
      f = EventFn([a, b, c, d, out] { *out = a + b + c + d; });  // 40 bytes
    });
    EXPECT_FALSE(f.is_inline());
    f();
  }
  EXPECT_EQ(sum, 10u);
  EXPECT_GE(n, 1u);  // the overflow path allocates exactly once for the body
}

TEST(EventFn, FunctionPointersAreInline) {
  static int hits;
  hits = 0;
  void (*fp)() = [] { ++hits; };
  const std::uint64_t n = allocs_during([&] {
    EventFn f(fp);
    EXPECT_TRUE(f.is_inline());
    f();
    EventFn g([] { ++hits; });  // capture-free lambda: same fast path
    EXPECT_TRUE(g.is_inline());
    g();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(hits, 2);
}

TEST(EventFn, MoveTransfersAndEmptiesSource) {
  int hits = 0;
  int* p = &hits;
  EventFn a([p] { ++*p; });
  EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EventFn c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(hits, 2);
}

TEST(EventFn, NonTrivialInlineCaptureRelocatesOwnership) {
  // shared_ptr is 16 bytes (inline) but not trivially copyable: moves must
  // go through the relocate path and the refcount must stay exact.
  auto owner = std::make_shared<int>(41);
  std::weak_ptr<int> watch = owner;
  {
    EventFn a([owner] { ++*owner; });
    EXPECT_TRUE(a.is_inline());
    owner.reset();
    EXPECT_EQ(watch.use_count(), 1);  // held by a's capture only
    EventFn b(std::move(a));
    EXPECT_EQ(watch.use_count(), 1);  // relocated, not duplicated
    b();
    EXPECT_EQ(*watch.lock(), 42);
  }
  EXPECT_TRUE(watch.expired());  // destroying the EventFn released it
}

TEST(EventFn, ResetDestroysHeldCallable) {
  auto owner = std::make_shared<int>(0);
  std::weak_ptr<int> watch = owner;
  EventFn f([owner] {});
  owner.reset();
  EXPECT_FALSE(watch.expired());
  f.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(EventFn, AssignBuildsPointerCaptureInPlaceWithoutAllocating) {
  int target = 0;
  int* p = &target;
  EventFn f([p] { *p += 1; });
  const std::uint64_t n = allocs_during([&] {
    f.assign([p] { *p += 10; });  // replaces the held callable
    ASSERT_TRUE(f.is_inline());
    f();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(target, 10);
}

/// A non-trivial inline capture that records every instance's lifetime:
/// each one must be destroyed exactly once, and `moves` counts relocations.
struct Tally {
  std::set<const void*> live;
  int moves = 0;
  int calls = 0;
  bool double_destroy = false;
};

struct Counting {
  Tally* t;
  explicit Counting(Tally* tally) : t(tally) { t->live.insert(this); }
  Counting(const Counting& o) : t(o.t) { t->live.insert(this); }
  Counting(Counting&& o) noexcept : t(o.t) {
    t->live.insert(this);
    ++t->moves;
  }
  Counting& operator=(const Counting&) = delete;
  ~Counting() {
    if (t->live.erase(this) != 1) t->double_destroy = true;
  }
  void operator()() { ++t->calls; }
};

TEST(EventFn, EngineDestroysCaptureExactlyOnceWhenFired) {
  Tally tally;
  {
    Engine e;
    e.schedule_after(5, Counting(&tally));
    EXPECT_EQ(tally.live.size(), 1u);  // the one in the slot
    EXPECT_EQ(tally.moves, 1);         // built in place: one move, no hops
    e.run();
    EXPECT_EQ(tally.calls, 1);
    EXPECT_TRUE(tally.live.empty());   // released as soon as it fired
  }
  EXPECT_FALSE(tally.double_destroy);
}

TEST(EventFn, EngineDestroysCaptureExactlyOnceWhenCanceled) {
  Tally tally;
  {
    Engine e;
    const EventId id = e.schedule_after(5, Counting(&tally));
    const EventId tick = e.schedule_periodic(1, 1, Counting(&tally));
    e.run_until(3);
    EXPECT_EQ(tally.calls, 3);  // the periodic fired at 1, 2, 3
    EXPECT_EQ(tally.live.size(), 2u);
    e.cancel(id);
    e.cancel(tick);
    EXPECT_TRUE(tally.live.empty());  // released at cancel, not later
    e.run();
    EXPECT_EQ(tally.calls, 3);
  }
  EXPECT_FALSE(tally.double_destroy);
}

TEST(EventFn, EngineMovesAnEventFnArgumentOnce) {
  Tally tally;
  {
    Engine e;
    EventFn f{Counting(&tally)};
    const int before = tally.moves;
    e.schedule_after(5, std::move(f));
    EXPECT_EQ(tally.moves - before, 1);
    EXPECT_EQ(tally.live.size(), 1u);
    e.run();
    EXPECT_EQ(tally.calls, 1);
    EXPECT_TRUE(tally.live.empty());
  }
  EXPECT_FALSE(tally.double_destroy);
}

TEST(EventFnDeathTest, EngineRejectsEmptyCallback) {
  Engine e;
  EXPECT_DEATH(e.schedule_after(1, EventFn{}), "empty event callback");
}

// --- the engine-level no-allocation guarantee (acceptance criterion) ---

TEST(EventFn, EngineScheduleCancelFireAllocationFreeWhenWarm) {
  constexpr int kBatch = 64;
  Engine e;
  std::uint64_t fired = 0;
  std::uint64_t* sink = &fired;

  // Warm-up: size the slab, the free list, and the heap's backing vector to
  // the working set used below.
  std::vector<EventId> ids;
  ids.reserve(2 * kBatch);
  for (int i = 0; i < 2 * kBatch; ++i) {
    ids.push_back(e.schedule_after(i + 1, [sink] { ++*sink; }));
  }
  for (int i = 0; i < kBatch; ++i) e.cancel(ids[static_cast<size_t>(2 * i)]);
  e.run();
  ids.clear();

  // Steady state: schedule + fire and schedule + cancel with inline-capacity
  // callbacks must not touch the heap at all.
  const std::uint64_t n = allocs_during([&] {
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < kBatch; ++i) {
        ids.push_back(e.schedule_after(i + 1, [sink] { ++*sink; }));
      }
      for (int i = 0; i < kBatch; i += 2) {
        e.cancel(ids[static_cast<size_t>(i)]);
      }
      e.run();
      ids.clear();
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(fired, 64u + 50u * 32u);
}

TEST(EventFn, EnginePeriodicSteadyStateAllocationFree) {
  Engine e;
  std::uint64_t fires = 0;
  std::uint64_t* sink = &fires;
  const EventId id = e.schedule_periodic(10, 10, [sink] { ++*sink; });
  e.run_until(100);  // warm: slab chunk + heap vector
  const std::uint64_t n = allocs_during([&] { e.run_until(10000); });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(fires, 1000u);
  e.cancel(id);
  EXPECT_FALSE(e.has_pending());
}

}  // namespace
}  // namespace eo::sim
