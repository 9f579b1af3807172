// Unit tests for the CFS runqueue, including the VB and BWD extensions.
#include "sched/runqueue.h"

#include <gtest/gtest.h>

#include <vector>

namespace eo::sched {
namespace {

class RunqueueTest : public ::testing::Test {
 protected:
  CfsParams params;
  SchedCounters counters;
  Runqueue rq{0, &params, &counters};

  SchedEntity* make(std::int64_t vruntime) {
    entities_.push_back(std::make_unique<SchedEntity>());
    entities_.back()->vruntime = vruntime;
    return entities_.back().get();
  }

  std::vector<std::unique_ptr<SchedEntity>> entities_;
};

TEST_F(RunqueueTest, PickLowestVruntime) {
  auto* a = make(100);
  auto* b = make(50);
  auto* c = make(200);
  rq.enqueue(a, false);
  rq.enqueue(b, false);
  rq.enqueue(c, false);
  EXPECT_EQ(rq.nr_running(), 3);
  EXPECT_EQ(rq.pick_next(), b);
  rq.put_prev(b);
  EXPECT_TRUE(rq.tree_valid());
}

TEST_F(RunqueueTest, CountsEnqueuesDequeuesAndPicks) {
  auto* a = make(100);
  auto* b = make(50);
  rq.enqueue(a, false);
  rq.enqueue(b, false);
  ASSERT_EQ(rq.pick_next(), b);
  rq.dequeue(a);
  EXPECT_EQ(counters.rq_enqueues, 2u);
  EXPECT_EQ(counters.rq_dequeues, 1u);
  EXPECT_EQ(counters.rq_picks, 1u);
}

TEST_F(RunqueueTest, SliceShrinksWithLoadDownToMinimum) {
  auto* a = make(0);
  rq.enqueue(a, false);
  EXPECT_EQ(rq.slice_for(a), params.sched_latency);  // alone: 3ms
  for (int i = 0; i < 3; ++i) rq.enqueue(make(0), false);
  EXPECT_EQ(rq.slice_for(a), params.sched_latency / 4);  // 750us
  for (int i = 0; i < 28; ++i) rq.enqueue(make(0), false);
  EXPECT_EQ(rq.slice_for(a), params.min_granularity);  // floor
}

TEST_F(RunqueueTest, AccountCurrAdvancesVruntimeAndMin) {
  auto* a = make(0);
  rq.enqueue(a, false);
  ASSERT_EQ(rq.pick_next(), a);
  rq.account_curr(1_ms);
  EXPECT_EQ(a->vruntime, 1_ms);
  EXPECT_GE(rq.min_vruntime(), 1_ms);
}

TEST_F(RunqueueTest, SleeperPlacementBounded) {
  auto* a = make(0);
  rq.enqueue(a, false);
  ASSERT_EQ(rq.pick_next(), a);
  rq.account_curr(100_ms);
  rq.put_prev(a);
  // A long sleeper wakes: it gets a bounded credit, not its ancient vruntime.
  auto* sleeper = make(0);
  rq.enqueue(sleeper, /*wakeup=*/true);
  EXPECT_GE(sleeper->vruntime, rq.min_vruntime() - params.sleeper_bonus);
}

TEST_F(RunqueueTest, ShouldPreemptRequiresGap) {
  auto* a = make(10_ms);
  rq.enqueue(a, false);
  ASSERT_EQ(rq.pick_next(), a);
  auto* close = make(10_ms - 100_us);  // within wakeup granularity
  EXPECT_FALSE(rq.should_preempt(close));
  auto* far = make(10_ms - 2_ms);
  EXPECT_TRUE(rq.should_preempt(far));
}

TEST_F(RunqueueTest, VbParkSortsLastAndKeepsCounts) {
  auto* a = make(100);
  auto* b = make(50);
  rq.enqueue(a, false);
  rq.enqueue(b, false);
  rq.vb_park(a);
  EXPECT_EQ(rq.nr_running(), 2);
  EXPECT_EQ(rq.nr_vb_blocked(), 1);
  EXPECT_EQ(rq.nr_schedulable(), 1);
  // b picked before the parked a despite a's original lower... (a had 100).
  EXPECT_EQ(rq.pick_next(), b);
  rq.put_prev(b);
  EXPECT_TRUE(a->vb_blocked);
  EXPECT_GE(a->vruntime, kVbVruntimeBase);
}

TEST_F(RunqueueTest, VbParkedPickedWhenAlone) {
  auto* a = make(100);
  rq.enqueue(a, false);
  rq.vb_park(a);
  // All parked: the scheduler still picks it (for the flag-check quantum).
  EXPECT_EQ(rq.pick_next(), a);
}

TEST_F(RunqueueTest, VbParkedFifoOrder) {
  auto* a = make(10);
  auto* b = make(20);
  auto* c = make(30);
  for (auto* e : {a, b, c}) rq.enqueue(e, false);
  rq.vb_park(c);
  rq.vb_park(a);
  rq.vb_park(b);
  // Park order c, a, b is preserved at the tail.
  EXPECT_EQ(rq.pick_next(), c);
  rq.put_prev(c);
}

TEST_F(RunqueueTest, VbUnparkRestoresPromptScheduling) {
  auto* a = make(100);
  auto* b = make(50);
  rq.enqueue(a, false);
  rq.enqueue(b, false);
  rq.vb_park(a);
  const auto saved = a->saved_vruntime;
  EXPECT_EQ(saved, 100);
  rq.vb_unpark(a);
  EXPECT_FALSE(a->vb_blocked);
  EXPECT_EQ(rq.nr_vb_blocked(), 0);
  EXPECT_LT(a->vruntime, kVbVruntimeBase);
  EXPECT_EQ(rq.pick_next(), b);  // b still first (lower vruntime)
  rq.put_prev(b);
}

TEST_F(RunqueueTest, VbClearCurrent) {
  auto* a = make(100);
  rq.enqueue(a, false);
  rq.vb_park(a);
  ASSERT_EQ(rq.pick_next(), a);  // check quantum
  rq.vb_clear_current(a);
  EXPECT_FALSE(a->vb_blocked);
  EXPECT_EQ(rq.nr_vb_blocked(), 0);
  EXPECT_LT(a->vruntime, kVbVruntimeBase);
  rq.put_prev(a);
}

TEST_F(RunqueueTest, BwdSkipPassedOverUntilOthersRan) {
  auto* a = make(10);
  auto* b = make(20);
  auto* c = make(30);
  for (auto* e : {a, b, c}) rq.enqueue(e, false);
  // a was descheduled by BWD.
  rq.bwd_mark_skip(a);
  // Next picks go to b and c even though a has the lowest vruntime.
  SchedEntity* p1 = rq.pick_next();
  EXPECT_EQ(p1, b);
  rq.account_curr(1_ms);
  rq.put_prev(p1);
  SchedEntity* p2 = rq.pick_next();
  EXPECT_EQ(p2, c);
  rq.account_curr(1_ms);
  rq.put_prev(p2);
  // Both others ran: the skip has expired.
  SchedEntity* p3 = rq.pick_next();
  EXPECT_EQ(p3, a);
  EXPECT_FALSE(a->bwd_skip);
  rq.put_prev(p3);
}

TEST_F(RunqueueTest, AllSkippedClearsVacuously) {
  auto* a = make(10);
  auto* b = make(20);
  rq.enqueue(a, false);
  rq.enqueue(b, false);
  rq.bwd_mark_skip(a);
  rq.bwd_mark_skip(b);
  SchedEntity* p = rq.pick_next();
  EXPECT_EQ(p, a);  // lowest vruntime once flags cleared
  EXPECT_FALSE(a->bwd_skip);
  EXPECT_FALSE(b->bwd_skip);
  rq.put_prev(p);
}

TEST_F(RunqueueTest, MigrationCandidateSkipsParkedAndPinned) {
  auto* a = make(10);
  auto* b = make(20);
  auto* c = make(30);
  for (auto* e : {a, b, c}) rq.enqueue(e, false);
  rq.vb_park(c);
  b->pinned = true;
  EXPECT_EQ(rq.migration_candidate(), a);
  rq.vb_park(a);
  EXPECT_EQ(rq.migration_candidate(), nullptr);
}

TEST_F(RunqueueTest, DetachAllEmptiesQueue) {
  for (int i = 0; i < 5; ++i) rq.enqueue(make(i), false);
  rq.vb_park(rq.migration_candidate());
  const auto all = rq.detach_all();
  EXPECT_EQ(all.size(), 5u);
  EXPECT_EQ(rq.nr_running(), 0);
  EXPECT_EQ(rq.nr_vb_blocked(), 0);
  for (auto* e : all) EXPECT_FALSE(e->on_rq);
}

// Regression: dequeuing a BWD-skipped entity (e.g. a migration pull) used to
// leave the skip flag and round bookkeeping behind, so the entity carried a
// stale skip sequence into its next queue and the old queue kept counting it
// toward skip-round termination.
TEST_F(RunqueueTest, DequeueClearsBwdSkipState) {
  auto* a = make(10);
  auto* b = make(20);
  rq.enqueue(a, false);
  rq.enqueue(b, false);
  rq.bwd_mark_skip(a);
  EXPECT_EQ(rq.count_bwd_skipped(), 1);
  rq.dequeue(a);
  EXPECT_FALSE(a->bwd_skip);
  EXPECT_EQ(a->bwd_skip_seq, 0u);
  EXPECT_EQ(rq.count_bwd_skipped(), 0);
  // Re-enqueued elsewhere (same queue here), it is schedulable immediately.
  rq.enqueue(a, false);
  EXPECT_EQ(rq.pick_next(), a);
  rq.put_prev(a);
}

TEST_F(RunqueueTest, DetachAllClearsBwdSkipState) {
  auto* a = make(10);
  auto* b = make(20);
  rq.enqueue(a, false);
  rq.enqueue(b, false);
  rq.bwd_mark_skip(b);
  const auto all = rq.detach_all();
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(rq.count_bwd_skipped(), 0);
  for (auto* e : all) {
    EXPECT_FALSE(e->bwd_skip);
    EXPECT_EQ(e->bwd_skip_seq, 0u);
  }
}

// --- QueueTuning disciplines (the policy zoo's building blocks) ---

class TunedRunqueueTest : public ::testing::Test {
 protected:
  SchedEntity* make(std::int64_t vruntime) {
    entities_.push_back(std::make_unique<SchedEntity>());
    entities_.back()->vruntime = vruntime;
    return entities_.back().get();
  }

  CfsParams params;
  SchedCounters counters;
  std::vector<std::unique_ptr<SchedEntity>> entities_;
};

TEST_F(TunedRunqueueTest, ArrivalKeysPickInArrivalOrder) {
  QueueTuning t;
  t.arrival_keys = true;
  t.wakeup_preempt = false;
  Runqueue rq{0, &params, &counters, &t};
  auto* a = make(300);  // vruntime is ignored as the sort key
  auto* b = make(200);
  auto* c = make(100);
  rq.enqueue(a, false);
  rq.enqueue(b, true);  // wakeup placement must not reorder FIFO queues
  rq.enqueue(c, false);
  EXPECT_EQ(rq.pick_next(), a);
  rq.account_curr(1_ms);
  rq.put_prev(a);  // still runnable: keeps its key, stays at the head
  EXPECT_EQ(rq.pick_next(), a);
  rq.put_prev(a);
}

TEST_F(TunedRunqueueTest, RequeueTailRotatesRoundRobin) {
  QueueTuning t;
  t.arrival_keys = true;
  t.requeue_tail = true;
  t.wakeup_preempt = false;
  Runqueue rq{0, &params, &counters, &t};
  auto* a = make(0);
  auto* b = make(0);
  auto* c = make(0);
  for (auto* e : {a, b, c}) rq.enqueue(e, false);
  for (auto* expect : {a, b, c, a, b, c}) {
    SchedEntity* p = rq.pick_next();
    EXPECT_EQ(p, expect);
    rq.account_curr(1_ms);
    rq.put_prev(p);
  }
}

TEST_F(TunedRunqueueTest, FixedQuantumOverridesSliceAndBlocksPreempt) {
  QueueTuning t;
  t.arrival_keys = true;
  t.wakeup_preempt = false;
  t.fixed_quantum = 5_ms;
  Runqueue rq{0, &params, &counters, &t};
  auto* a = make(0);
  rq.enqueue(a, false);
  for (int i = 0; i < 3; ++i) rq.enqueue(make(0), false);
  EXPECT_EQ(rq.slice_for(a), 5_ms);  // not sched_latency / 4
  ASSERT_EQ(rq.pick_next(), a);
  auto* waker = make(0);
  EXPECT_FALSE(rq.should_preempt(waker));
}

TEST_F(TunedRunqueueTest, ArrivalKeysKeepVbContract) {
  QueueTuning t;
  t.arrival_keys = true;
  t.wakeup_preempt = false;
  Runqueue rq{0, &params, &counters, &t};
  auto* a = make(0);
  auto* b = make(0);
  rq.enqueue(a, false);
  rq.enqueue(b, false);
  rq.vb_park(a);
  EXPECT_EQ(rq.nr_schedulable(), 1);
  EXPECT_EQ(rq.pick_next(), b);  // parked a sits behind b
  rq.put_prev(b);
  rq.vb_unpark(a);
  // A VB unpark goes to the queue head even under FIFO ordering, so the
  // waker is promptly scheduled (the paper's modified-wakeup behavior).
  EXPECT_EQ(rq.pick_next(), a);
  rq.put_prev(a);
}

TEST_F(TunedRunqueueTest, BwdSkipRoundHoldsUnderArrivalKeys) {
  QueueTuning t;
  t.arrival_keys = true;
  t.wakeup_preempt = false;
  Runqueue rq{0, &params, &counters, &t};
  auto* a = make(0);
  auto* b = make(0);
  auto* c = make(0);
  for (auto* e : {a, b, c}) rq.enqueue(e, false);
  rq.bwd_mark_skip(a);
  // FIFO runs-to-block: b keeps the queue head across put_prev, so the
  // skip round is two consecutive b picks before a's skip expires.
  SchedEntity* p1 = rq.pick_next();
  EXPECT_EQ(p1, b);
  rq.put_prev(p1);
  SchedEntity* p2 = rq.pick_next();
  EXPECT_EQ(p2, b);
  rq.put_prev(p2);
  SchedEntity* p3 = rq.pick_next();
  EXPECT_EQ(p3, a);
  EXPECT_FALSE(a->bwd_skip);
  rq.put_prev(p3);
}

namespace {
/// Always prefers a designated entity when it is eligible.
class PreferBias : public PickBias {
 public:
  explicit PreferBias(SchedEntity* want) : want_(want) {}
  SchedEntity* choose(const Runqueue& rq, SchedEntity* fair) override {
    for (SchedEntity* e = rq.first_queued(); e; e = rq.next_queued(e)) {
      if (e == want_ && !e->vb_blocked && !e->bwd_skip) return e;
    }
    return fair;
  }

 private:
  SchedEntity* want_;
};
}  // namespace

TEST_F(TunedRunqueueTest, PickBiasOverridesFairChoice) {
  Runqueue rq{0, &params, &counters};
  auto* a = make(10);
  auto* b = make(20);
  rq.enqueue(a, false);
  rq.enqueue(b, false);
  PreferBias bias(b);
  rq.set_pick_bias(&bias);
  EXPECT_EQ(rq.pick_next(), b);  // fair choice would be a
  rq.put_prev(b);
  rq.set_pick_bias(nullptr);
  EXPECT_EQ(rq.pick_next(), a);
  rq.put_prev(a);
}

TEST_F(TunedRunqueueTest, PickBiasNotConsultedForSkipExpiry) {
  Runqueue rq{0, &params, &counters};
  auto* a = make(10);
  auto* b = make(20);
  rq.enqueue(a, false);
  rq.enqueue(b, false);
  rq.bwd_mark_skip(a);
  PreferBias bias(a);
  rq.set_pick_bias(&bias);
  // a is skip-flagged: the bias cannot resurrect it.
  SchedEntity* p1 = rq.pick_next();
  EXPECT_EQ(p1, b);
  rq.put_prev(p1);
  // Skip round over: a is picked on the expiry path (bias not consulted,
  // and it must not matter — a is the fair choice anyway).
  SchedEntity* p2 = rq.pick_next();
  EXPECT_EQ(p2, a);
  EXPECT_FALSE(a->bwd_skip);
  rq.put_prev(p2);
}

}  // namespace
}  // namespace eo::sched
