// Unit tests for the tracing core: ring wraparound/drop accounting, the
// disabled-tracer fast path, and deterministic snapshot merging. These drive
// Tracer::emit directly.
#include <gtest/gtest.h>

#include "sim/engine.h"
#include "trace/trace.h"

namespace eo::trace {
namespace {

TraceEvent make_event(SimTime ts, std::uint64_t arg0) {
  TraceEvent e;
  e.ts = ts;
  e.arg0 = arg0;
  return e;
}

TEST(TraceRing, FillsWithoutDroppingUpToCapacity) {
  TraceRing r(4);
  for (std::uint64_t i = 0; i < 4; ++i) r.push(make_event(i, i));
  EXPECT_EQ(r.size(), 4u);
  EXPECT_EQ(r.dropped(), 0u);
  std::vector<TraceEvent> out;
  r.copy_ordered(&out);
  ASSERT_EQ(out.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].arg0, i);
}

TEST(TraceRing, WrapsOverwritingOldestAndCountsDropped) {
  TraceRing r(4);
  for (std::uint64_t i = 0; i < 10; ++i) r.push(make_event(i, i));
  EXPECT_EQ(r.size(), 4u);
  EXPECT_EQ(r.dropped(), 6u);
  std::vector<TraceEvent> out;
  r.copy_ordered(&out);
  ASSERT_EQ(out.size(), 4u);
  // The four newest survive, oldest-first.
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].arg0, 6 + i);
}

TEST(Tracer, DisabledEmitsNothing) {
  sim::Engine e;
  TraceConfig cfg;  // enabled = false
  Tracer t(&e, 2, cfg);
  for (int i = 0; i < 100; ++i) {
    t.emit(i % 2, EventKind::kSwitchIn, i);
  }
  EXPECT_EQ(t.total_events(), 0u);
  EXPECT_EQ(t.total_dropped(), 0u);
  EXPECT_TRUE(t.snapshot().events.empty());
}

TEST(Tracer, EnableCapturesAndDisableStops) {
  sim::Engine e;
  TraceConfig cfg;
  Tracer t(&e, 2, cfg);
  t.emit(0, EventKind::kSwitchIn, 1);  // before enable: dropped on the floor
  t.set_enabled(true);
  t.emit(0, EventKind::kSwitchIn, 2);
  t.set_enabled(false);
  t.emit(0, EventKind::kSwitchIn, 3);  // after disable: ignored
  const Trace tr = t.snapshot();
  ASSERT_EQ(tr.events.size(), 1u);
  EXPECT_EQ(tr.events[0].tid, 2);
}

TEST(Tracer, SnapshotMergesTimeOrderedWithRingTieBreak) {
  sim::Engine e;
  TraceConfig cfg;
  cfg.enabled = true;
  Tracer t(&e, 3, cfg);
  // now() == 0 for all: ties must come out in ring (core) order even though
  // emission interleaves the cores.
  t.emit(2, EventKind::kSwitchIn, 30);
  t.emit(0, EventKind::kSwitchIn, 10);
  t.emit(1, EventKind::kSwitchIn, 20);
  e.schedule_after(5, [&] {
    t.emit(1, EventKind::kSwitchOut, 21);
    t.emit(0, EventKind::kSwitchOut, 11);
  });
  e.run_until(10);
  const Trace tr = t.snapshot();
  ASSERT_EQ(tr.events.size(), 5u);
  EXPECT_EQ(tr.events[0].tid, 10);
  EXPECT_EQ(tr.events[1].tid, 20);
  EXPECT_EQ(tr.events[2].tid, 30);
  EXPECT_EQ(tr.events[3].tid, 11);  // ts=5, ring 0 before ring 1
  EXPECT_EQ(tr.events[4].tid, 21);
  EXPECT_EQ(tr.events[3].ts, 5);
}

TEST(Tracer, AmbientRingCollectsCorelessEvents) {
  sim::Engine e;
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 8;
  Tracer t(&e, 2, cfg);
  t.emit(-1, EventKind::kEpollPost, 0, 7);
  const Trace tr = t.snapshot();
  ASSERT_EQ(tr.events.size(), 1u);
  EXPECT_EQ(tr.events[0].core, -1);
  EXPECT_EQ(tr.events[0].arg0, 7u);
}

TEST(Tracer, DroppedAggregatesAcrossRings) {
  sim::Engine e;
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 2;
  Tracer t(&e, 2, cfg);
  for (int i = 0; i < 5; ++i) t.emit(0, EventKind::kSwitchIn, i);
  for (int i = 0; i < 3; ++i) t.emit(1, EventKind::kSwitchIn, i);
  EXPECT_EQ(t.total_dropped(), 3u + 1u);
  EXPECT_EQ(t.snapshot().dropped, 4u);
  EXPECT_EQ(t.total_events(), 4u);
}

}  // namespace
}  // namespace eo::trace
