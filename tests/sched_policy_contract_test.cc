// Policy-contract conformance suite: every discipline registered in
// sched::policy_names() must uphold the SchedPolicy contracts documented in
// src/sched/policy.h — the VB-park and BWD-skip mechanism contracts, queue
// bookkeeping, migration teardown, tunable export — and run an
// oversubscribed kernel deterministically and watchdog-clean. A new row in
// the policy table is picked up here automatically; kDisciplines below must
// gain a matching row describing what the new name selects.
#include "sched/policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "hw/topology.h"
#include "metrics/experiment.h"
#include "obs/metrics.h"
#include "sched/cfs.h"
#include "traffic/fleet.h"
#include "workloads/suite.h"

namespace eo::sched {
namespace {

/// What each registered name selects, checked through make_policy.
struct Discipline {
  const char* name;
  /// slice_for with two runnable entities; 0 means the CFS formula.
  SimDuration slice;
  /// Does a wakee far behind the running entity preempt it?
  bool wakeup_preempts;
  /// After put_prev, is the same entity picked again ahead of its peers?
  bool repicks_after_put_prev;
  /// Does the pick history bias vruntime ties?
  bool predicts;
  /// Every exported gauge, in registration order, without "sched.<name>.".
  std::vector<std::string> gauges;
};

const std::vector<Discipline>& disciplines() {
  static const std::vector<Discipline> kDisciplines = {
      {"cfs", 0, true, false, false,
       {"sched_latency_ns", "min_granularity_ns", "wakeup_granularity_ns",
        "balance_interval_ns", "balance_imbalance"}},
      {"fifo", 100_ms, false, true, false,
       {"slice_ns", "balance_interval_ns", "balance_imbalance"}},
      {"rr", 1_ms, false, false, false,
       {"quantum_ns", "balance_interval_ns", "balance_imbalance"}},
      {"pcfs", 0, true, false, true,
       {"sched_latency_ns", "min_granularity_ns", "wakeup_granularity_ns",
        "history", "tie_window_ns", "balance_interval_ns",
        "balance_imbalance"}},
  };
  return kDisciplines;
}

const Discipline* find_discipline(const std::string& name) {
  for (const Discipline& d : disciplines()) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

class PolicyContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    topo_ = hw::Topology::make_cores(4, 1);
    policy_ = make_policy(GetParam(), &topo_, &cfs_, &params_);
    ASSERT_NE(policy_, nullptr);
  }

  SchedEntity* make(std::int64_t vruntime = 0) {
    entities_.push_back(std::make_unique<SchedEntity>());
    entities_.back()->vruntime = vruntime;
    entities_.back()->tid = next_tid_++;
    return entities_.back().get();
  }

  /// Picks repeatedly (returning each entity to the queue) until `want` is
  /// picked or `bound` picks elapse; returns how many picks it took, or -1.
  int picks_until(int cpu, const SchedEntity* want, int bound) {
    for (int i = 1; i <= bound; ++i) {
      SchedEntity* p = policy_->pick_next(cpu);
      if (p == nullptr) return -1;
      policy_->account(cpu, 1_ms);
      policy_->put_prev(cpu, p);
      if (p == want) return i;
    }
    return -1;
  }

  hw::Topology topo_;
  CfsParams cfs_;
  PolicyParams params_;
  std::unique_ptr<SchedPolicy> policy_;
  std::vector<std::unique_ptr<SchedEntity>> entities_;
  std::int32_t next_tid_ = 1;
};

TEST_P(PolicyContractTest, NameMatchesRegistry) {
  EXPECT_EQ(policy_->name(), GetParam());
}

TEST_P(PolicyContractTest, EnqueueDequeueBookkeeping) {
  auto* a = make(10);
  auto* b = make(20);
  policy_->enqueue(0, a, false);
  policy_->enqueue(0, b, true);
  EXPECT_EQ(policy_->nr_running(0), 2);
  EXPECT_EQ(policy_->nr_schedulable(0), 2);
  EXPECT_EQ(policy_->nr_running(1), 0);
  policy_->dequeue(0, a);
  policy_->dequeue(0, b);
  EXPECT_EQ(policy_->nr_running(0), 0);
  EXPECT_FALSE(a->on_rq);
}

TEST_P(PolicyContractTest, EveryEntityRunsWhenWorkBlocks) {
  // FIFO-family disciplines run an entity until it blocks, so the
  // no-starvation contract is stated under blocking work: each picked
  // entity leaves the queue (blocks) and everyone must get a turn.
  std::vector<SchedEntity*> all;
  for (int i = 0; i < 3; ++i) {
    all.push_back(make(i * 10));
    policy_->enqueue(0, all.back(), false);
  }
  std::vector<const SchedEntity*> seen;
  for (int i = 0; i < 3; ++i) {
    SchedEntity* p = policy_->pick_next(0);
    ASSERT_NE(p, nullptr);
    policy_->account(0, 1_ms);
    policy_->put_prev(0, p);
    policy_->dequeue(0, p);
    EXPECT_EQ(std::count(seen.begin(), seen.end(), p), 0)
        << "entity picked twice while others waited";
    seen.push_back(p);
  }
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(policy_->pick_next(0), nullptr);
}

TEST_P(PolicyContractTest, SlicePositive) {
  auto* a = make(0);
  policy_->enqueue(0, a, false);
  EXPECT_GT(policy_->slice_for(0, a), 0);
}

TEST_P(PolicyContractTest, VbParkedSortsBehindSchedulableWork) {
  auto* a = make(10);  // would be the fair first choice
  auto* b = make(20);
  policy_->enqueue(0, a, false);
  policy_->enqueue(0, b, false);
  policy_->vb_park(0, a);
  EXPECT_EQ(policy_->nr_running(0), 2);    // VB keeps load stable
  EXPECT_EQ(policy_->nr_schedulable(0), 1);
  EXPECT_EQ(policy_->nr_vb_blocked(0), 1);
  SchedEntity* p = policy_->pick_next(0);
  EXPECT_EQ(p, b) << "parked entity picked while schedulable work exists";
  policy_->put_prev(0, p);
}

TEST_P(PolicyContractTest, VbParkedPickedOnlyWhenAlone) {
  auto* a = make(10);
  policy_->enqueue(0, a, false);
  policy_->vb_park(0, a);
  // Nothing else runnable: the parked entity gets its flag-check quantum.
  SchedEntity* p = policy_->pick_next(0);
  EXPECT_EQ(p, a);
  EXPECT_TRUE(p->vb_blocked);
  // ...and a real wakeup must preempt the flag-check quantum.
  auto* waker = make(1000);
  EXPECT_TRUE(policy_->should_preempt(0, waker));
  policy_->vb_clear_current(0, p);
  EXPECT_FALSE(p->vb_blocked);
  EXPECT_EQ(policy_->nr_vb_blocked(0), 0);
  policy_->put_prev(0, p);
}

TEST_P(PolicyContractTest, VbUnparkPromptlySchedulable) {
  auto* a = make(10);
  auto* b = make(20);
  policy_->enqueue(0, a, false);
  policy_->enqueue(0, b, false);
  policy_->vb_park(0, a);
  policy_->vb_unpark(0, a);
  EXPECT_EQ(policy_->nr_vb_blocked(0), 0);
  EXPECT_FALSE(a->vb_blocked);
  EXPECT_GT(picks_until(0, a, 2), 0) << "unparked entity not promptly run";
}

TEST_P(PolicyContractTest, BwdSkippedPassedOverThenRuns) {
  auto* a = make(10);  // fair first choice, then skipped
  auto* b = make(20);
  auto* c = make(30);
  for (auto* e : {a, b, c}) policy_->enqueue(0, e, false);
  policy_->bwd_mark_skip(0, a);
  EXPECT_EQ(policy_->nr_bwd_skipped(0), 1);
  SchedEntity* first = policy_->pick_next(0);
  EXPECT_NE(first, a) << "skipped entity picked immediately";
  policy_->account(0, 1_ms);
  policy_->put_prev(0, first);
  // The skip must expire after the rest of the queue had a turn.
  EXPECT_GT(picks_until(0, a, 10), 0) << "skipped entity starved";
  EXPECT_FALSE(a->bwd_skip);
  EXPECT_EQ(policy_->nr_bwd_skipped(0), 0);
}

TEST_P(PolicyContractTest, AllSkippedClearsVacuously) {
  auto* a = make(10);
  auto* b = make(20);
  policy_->enqueue(0, a, false);
  policy_->enqueue(0, b, false);
  policy_->bwd_mark_skip(0, a);
  policy_->bwd_mark_skip(0, b);
  SchedEntity* p = policy_->pick_next(0);
  ASSERT_NE(p, nullptr) << "all-skipped queue must still yield a pick";
  EXPECT_FALSE(a->bwd_skip);
  EXPECT_FALSE(b->bwd_skip);
  EXPECT_EQ(policy_->nr_bwd_skipped(0), 0);
  policy_->put_prev(0, p);
}

// Regression (satellite of the SchedPolicy refactor): dequeuing a skipped
// entity — a migration pull is the real-world path — must tear down the skip
// state so the entity is schedulable on its next queue.
TEST_P(PolicyContractTest, DequeueTearsDownSkipState) {
  auto* a = make(10);
  auto* b = make(20);
  policy_->enqueue(0, a, false);
  policy_->enqueue(0, b, false);
  policy_->bwd_mark_skip(0, a);
  policy_->dequeue(0, a);
  EXPECT_FALSE(a->bwd_skip);
  EXPECT_EQ(policy_->nr_bwd_skipped(0), 0);
  policy_->place_migrated(0, 1, a);
  EXPECT_EQ(policy_->nr_running(1), 1);
  SchedEntity* p = policy_->pick_next(1);
  EXPECT_EQ(p, a) << "migrated entity still carries skip state";
  policy_->put_prev(1, p);
}

TEST_P(PolicyContractTest, DetachAllReturnsAndCleansEverything) {
  auto* a = make(10);
  auto* b = make(20);
  auto* c = make(30);
  for (auto* e : {a, b, c}) policy_->enqueue(0, e, false);
  policy_->vb_park(0, b);
  policy_->bwd_mark_skip(0, c);
  const auto all = policy_->detach_all(0);
  EXPECT_EQ(all.size(), 3u);
  EXPECT_EQ(policy_->nr_running(0), 0);
  EXPECT_EQ(policy_->nr_vb_blocked(0), 0);
  EXPECT_EQ(policy_->nr_bwd_skipped(0), 0);
  for (auto* e : all) {
    EXPECT_FALSE(e->on_rq);
    EXPECT_FALSE(e->bwd_skip);
  }
}

TEST_P(PolicyContractTest, PlaceFreshJoinsWithoutPreempting) {
  auto* a = make(0);
  policy_->enqueue(0, a, false);
  ASSERT_EQ(policy_->pick_next(0), a);
  policy_->account(0, 1_ms);
  auto* fresh = make(0);
  policy_->place_fresh(0, fresh);
  EXPECT_EQ(policy_->nr_running(0), 2);
  EXPECT_FALSE(policy_->should_preempt(0, fresh))
      << "a freshly placed entity preempted the incumbent";
  policy_->put_prev(0, a);
}

TEST_P(PolicyContractTest, BalancePullsTowardIdleCore) {
  for (int i = 0; i < 4; ++i) policy_->enqueue(0, make(i * 10), false);
  const auto d = policy_->balance(1, [](int) { return true; },
                                  /*newly_idle=*/true);
  ASSERT_TRUE(d.has_value()) << "no pull toward an idle core from a 4-deep "
                                "queue";
  EXPECT_EQ(d->dst_cpu, 1);
  EXPECT_EQ(d->src_cpu, 0);
  ASSERT_NE(d->victim, nullptr);
  EXPECT_FALSE(d->victim->vb_blocked) << "policy migrated a VB-parked entity";
  policy_->dequeue(d->src_cpu, d->victim);
  policy_->place_migrated(d->src_cpu, d->dst_cpu, d->victim);
  EXPECT_EQ(policy_->nr_running(0), 3);
  EXPECT_EQ(policy_->nr_running(1), 1);
}

TEST_P(PolicyContractTest, ExportTunablesUnderPolicyPrefix) {
  const Discipline* d = find_discipline(GetParam());
  ASSERT_NE(d, nullptr) << "no kDisciplines row for " << GetParam();
  obs::MetricRegistry reg;
  policy_->register_metrics(&reg);
  const std::string prefix = "sched." + GetParam() + ".";
  std::vector<std::string> want;
  for (const std::string& g : d->gauges) want.push_back(prefix + g);
  std::vector<std::string> got;
  for (const auto& g : reg.snapshot_gauges()) got.push_back(g.name);
  EXPECT_EQ(got, want);
  // The queue and balancer counters come first, under the same names for
  // every discipline.
  const std::vector<std::string> want_counters = {
      "sched.rq.enqueues", "sched.rq.dequeues", "sched.rq.picks",
      "sched.balance.attempts", "sched.balance.pulls"};
  std::vector<std::string> got_counters;
  for (const auto& c : reg.snapshot_counters()) got_counters.push_back(c.name);
  EXPECT_EQ(got_counters, want_counters);
}

// Each name selects its own discipline: slice length, wakeup preemption,
// put_prev rotation and the predictive tie-break all differ between the
// rows of the policy table, so two rows swapping their tunings (or pcfs
// never learning a pick) fails here even where the contracts above hold.
TEST_P(PolicyContractTest, NameSelectsItsDiscipline) {
  const Discipline* d = find_discipline(GetParam());
  ASSERT_NE(d, nullptr) << "no kDisciplines row for " << GetParam();

  // Slice with two runnable entities.
  auto* a = make(0);
  auto* b = make(0);
  policy_->enqueue(0, a, false);
  policy_->enqueue(0, b, false);
  const SimDuration cfs_slice =
      std::max(cfs_.sched_latency / 2, cfs_.min_granularity);
  EXPECT_EQ(policy_->slice_for(0, a), d->slice > 0 ? d->slice : cfs_slice);

  // put_prev: the entity just run either keeps the head or rotates behind b.
  SchedEntity* first = policy_->pick_next(0);
  ASSERT_EQ(first, a);
  policy_->account(0, 1_ms);
  policy_->put_prev(0, first);
  SchedEntity* second = policy_->pick_next(0);
  EXPECT_EQ(second, d->repicks_after_put_prev ? a : b);
  policy_->put_prev(0, second);
  policy_->dequeue(0, a);
  policy_->dequeue(0, b);

  // A wakee far behind the running entity.
  auto* hog = make(0);
  policy_->enqueue(1, hog, false);
  ASSERT_EQ(policy_->pick_next(1), hog);
  policy_->account(1, 10_ms);
  EXPECT_EQ(policy_->should_preempt(1, make(0)), d->wakeup_preempts);
  policy_->put_prev(1, hog);

  // Teach core 2 the transition x→y with picks x, y, x, each run alone.
  auto* x = make(0);
  auto* y = make(0);
  for (SchedEntity* e : {x, y, x}) {
    policy_->enqueue(2, e, false);
    ASSERT_EQ(policy_->pick_next(2), e);
    policy_->put_prev(2, e);
    policy_->dequeue(2, e);
  }
  // z is the fair (and first-arrived) choice; y trails it by less than the
  // tie window, and the history says y follows x.
  auto* z = make(100);
  y->vruntime = 100 + params_.predict_tie_window / 2;
  policy_->enqueue(2, z, false);
  policy_->enqueue(2, y, false);
  EXPECT_EQ(policy_->pick_next(2), d->predicts ? y : z);
}

// Kernel-level: an oversubscribed blocking workload (16 threads on 4 cores,
// VB+BWD enabled) must complete, be watchdog-clean, and be deterministic
// run-to-run under every policy.
TEST_P(PolicyContractTest, OversubscribedRunDeterministicAndWatchdogClean) {
  const auto& spec = workloads::find_benchmark("cg");
  auto run = [&] {
    metrics::RunConfig rc;
    rc.cpus = 4;
    rc.sockets = 1;
    rc.sched = GetParam();
    rc.features = core::Features::optimized();
    rc.ref_footprint = spec.ref_footprint();
    rc.deadline = 600_s;
    rc.metrics.enabled = true;
    return metrics::run_experiment(rc, [&](kern::Kernel& k) {
      workloads::spawn_benchmark(k, spec, 16, /*seed=*/7, /*scale=*/0.02);
    });
  };
  const auto r1 = run();
  const auto r2 = run();
  ASSERT_TRUE(r1.completed);
  EXPECT_EQ(r1.exec_time, r2.exec_time) << "policy is not deterministic";
  ASSERT_NE(r1.metrics, nullptr);
  EXPECT_EQ(r1.metrics->watchdog_violations, 0u);
}

// Every policy must keep the per-task delay accounting conserved: whatever
// its dispatch order, VB parking, or skip handling does, each task's state
// times must sum to its kernel-ground-truth lifetime, and the sampler's
// watchdog must stay violation-free.
TEST_P(PolicyContractTest, TaskstatsConserved) {
  const auto& spec = workloads::find_benchmark("cg");
  metrics::RunConfig rc;
  rc.cpus = 4;
  rc.sockets = 1;
  rc.sched = GetParam();
  rc.features = core::Features::optimized();
  rc.ref_footprint = spec.ref_footprint();
  rc.deadline = 600_s;
  rc.metrics.enabled = true;
  rc.taskstats = true;
  const auto r = metrics::run_experiment(rc, [&](kern::Kernel& k) {
    workloads::spawn_benchmark(k, spec, 16, /*seed=*/7, /*scale=*/0.02);
  });
  ASSERT_TRUE(r.completed);
  ASSERT_NE(r.taskstats, nullptr);
  ASSERT_EQ(r.taskstats->tasks.size(), 16u);
  for (const auto& t : r.taskstats->tasks) {
    EXPECT_TRUE(t.finished);
    EXPECT_EQ(t.times.total(), t.lifetime)
        << GetParam() << ": " << t.name << "/" << t.tid;
    EXPECT_GT(t.times[obs::TaskDelayState::kOncpu], 0)
        << GetParam() << ": " << t.name << "/" << t.tid;
  }
  ASSERT_NE(r.metrics, nullptr);
  EXPECT_GT(r.metrics->watchdog_checks, 0u);
  EXPECT_EQ(r.metrics->watchdog_violations, 0u);
}

TEST_P(PolicyContractTest, ParallelHostsMatchSequentialRun) {
  // The fleet engine may fan its per-host kernels out onto host threads
  // (FleetConfig.jobs); every policy must produce bit-identical fleet
  // results either way — per-host kernels share nothing, so any divergence
  // means hidden cross-kernel state inside the scheduler.
  auto run = [&](std::size_t jobs) {
    traffic::FleetConfig fc;
    fc.n_hosts = 3;
    fc.host.n_connections = 2048;
    fc.host.max_pending = 512;
    fc.kernel.policy = GetParam();
    // ~0.7x of the 8-core host's capacity: busy but not shedding-dominated.
    fc.arrival.rate_per_sec =
        0.7 * 8e9 / traffic::mean_request_cost_ns(fc.host);
    fc.warmup = 2_ms;
    fc.window = 8_ms;
    fc.drain = 2_ms;
    fc.seed = 99;
    fc.jobs = jobs;
    traffic::ConnectionFleet fleet(fc);
    return fleet.run();
  };
  const traffic::FleetResult seq = run(1);
  const traffic::FleetResult par = run(4);
  ASSERT_GT(seq.completed, 0u);
  EXPECT_EQ(seq.issued, par.issued);
  EXPECT_EQ(seq.completed, par.completed);
  EXPECT_EQ(seq.shed, par.shed);
  EXPECT_EQ(seq.active_connections, par.active_connections);
  EXPECT_EQ(seq.latency.total_count(), par.latency.total_count());
  EXPECT_EQ(seq.latency.p50(), par.latency.p50());
  EXPECT_EQ(seq.latency.p99(), par.latency.p99());
  EXPECT_EQ(seq.latency.p999(), par.latency.p999());
  EXPECT_EQ(seq.stats.context_switches, par.stats.context_switches);
  EXPECT_EQ(seq.stats.wakeups, par.stats.wakeups);
  EXPECT_EQ(seq.stats.vb_parks, par.stats.vb_parks);
}

INSTANTIATE_TEST_SUITE_P(PolicyZoo, PolicyContractTest,
                         ::testing::ValuesIn(policy_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace eo::sched
