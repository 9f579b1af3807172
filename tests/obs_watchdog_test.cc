// InvariantWatchdog: corrupted frames must fire, clean runs must not.
#include <gtest/gtest.h>

#include "metrics/experiment.h"
#include "obs/sampler.h"
#include "obs/watchdog.h"
#include "sched/sched_stats.h"
#include "workloads/suite.h"

namespace eo::obs {
namespace {

// One internally consistent frame: 2 cores, 3 runnable (1 parked), 1 asleep.
struct Frame {
  CoreSample cores[2];
  GlobalSample g;

  Frame() {
    cores[0].rq_depth = 2;
    cores[0].schedulable = 1;
    cores[0].vb_parked = 1;
    cores[0].running = 1;
    cores[0].online = 1;
    cores[1].rq_depth = 1;
    cores[1].schedulable = 1;
    cores[1].running = 1;
    cores[1].online = 1;
    g.live_tasks = 4;
    g.online_cores = 2;
    g.tasks_runnable = 3;
    g.tasks_sleeping = 1;
    g.context_switches = 10;
    g.wakeups = 5;
    g.migrations = 2;
    g.vb_parks = 3;
    g.vb_unparks = 2;
  }
};

TEST(Watchdog, CleanFramesRecordNothing) {
  InvariantWatchdog wd;
  Frame f;
  for (int i = 0; i < 5; ++i) {
    f.g.context_switches += 2;
    EXPECT_EQ(wd.check(i * 100, f.cores, 2, f.g), 0);
  }
  EXPECT_EQ(wd.checks(), 5u);
  EXPECT_EQ(wd.violations(), 0u);
  EXPECT_TRUE(wd.records().empty());
}

TEST(Watchdog, RqDepthSumMismatchFires) {
  InvariantWatchdog wd;
  Frame f;
  f.g.tasks_runnable = 7;  // truth says 7, cores sum to 3
  f.g.live_tasks = 8;      // keep the live split consistent
  EXPECT_GT(wd.check(0, f.cores, 2, f.g), 0);
  ASSERT_FALSE(wd.records().empty());
  EXPECT_EQ(wd.records()[0].invariant, "rq_depth_sum");
}

TEST(Watchdog, SchedulableSplitFires) {
  InvariantWatchdog wd;
  Frame f;
  f.cores[0].schedulable = 2;  // rq_depth 2 - parked 1 != 2
  EXPECT_GT(wd.check(0, f.cores, 2, f.g), 0);
  EXPECT_EQ(wd.records()[0].invariant, "schedulable_split");
}

TEST(Watchdog, VbParkedBoundFires) {
  InvariantWatchdog wd;
  Frame f;
  f.cores[1].vb_parked = 5;  // > rq_depth 1
  EXPECT_GT(wd.check(0, f.cores, 2, f.g), 0);
  EXPECT_EQ(wd.records()[0].invariant, "vb_parked_bound");
}

TEST(Watchdog, BwdSkippedBoundFires) {
  InvariantWatchdog wd;
  Frame f;
  f.cores[0].bwd_skipped = 2;  // only 1 queued entity besides the runner
  EXPECT_GT(wd.check(0, f.cores, 2, f.g), 0);
  EXPECT_EQ(wd.records()[0].invariant, "bwd_skipped_bound");
}

TEST(Watchdog, OfflineCoreWithWorkFires) {
  InvariantWatchdog wd;
  Frame f;
  f.cores[1].online = 0;
  EXPECT_GT(wd.check(0, f.cores, 2, f.g), 0);
  EXPECT_EQ(wd.records()[0].invariant, "offline_core_empty");
}

TEST(Watchdog, LiveTaskSplitFires) {
  InvariantWatchdog wd;
  Frame f;
  f.g.tasks_sleeping = 9;
  EXPECT_GT(wd.check(0, f.cores, 2, f.g), 0);
  EXPECT_EQ(wd.records()[0].invariant, "live_task_split");
}

TEST(Watchdog, VbParkPairingFires) {
  InvariantWatchdog wd;
  Frame f;
  f.g.vb_unparks = f.g.vb_parks + 1;
  EXPECT_GT(wd.check(0, f.cores, 2, f.g), 0);
  EXPECT_EQ(wd.records()[0].invariant, "vb_park_pairing");
}

TEST(Watchdog, CorruptedCounterRegressionFires) {
  // The kernel's SchedStats fields are registered cells; the registry loop
  // is what checks them.
  sched::SchedStats stats;
  stats.context_switches = 10;
  MetricRegistry reg;
  stats.register_metrics(&reg);
  InvariantWatchdog wd(&reg);
  Frame f;
  EXPECT_EQ(wd.check(0, f.cores, 2, f.g), 0);
  stats.context_switches -= 1;  // monotonic counter regresses
  EXPECT_GT(wd.check(100, f.cores, 2, f.g), 0);
  ASSERT_FALSE(wd.records().empty());
  EXPECT_EQ(wd.records()[0].invariant, "counter_monotonic");
  EXPECT_NE(wd.records()[0].detail.find("sched.context_switches"),
            std::string::npos);
}

TEST(Watchdog, RegistryCounterRegressionFires) {
  MetricRegistry reg;
  std::uint64_t cell = 100;
  reg.register_counter("test.mono", &cell);
  InvariantWatchdog wd(&reg);
  Frame f;
  EXPECT_EQ(wd.check(0, f.cores, 2, f.g), 0);
  cell = 50;  // corrupt: regress a registered counter
  EXPECT_GT(wd.check(100, f.cores, 2, f.g), 0);
  EXPECT_EQ(wd.records()[0].invariant, "counter_monotonic");
  EXPECT_NE(wd.records()[0].detail.find("test.mono"), std::string::npos);
}

TEST(Watchdog, RecordingCapsButCountingContinues) {
  InvariantWatchdog wd;
  Frame f;
  f.g.tasks_sleeping = 42;  // live_task_split fires every frame
  for (std::size_t i = 0; i < InvariantWatchdog::kMaxRecorded + 10; ++i) {
    wd.check(static_cast<SimTime>(i), f.cores, 2, f.g);
  }
  EXPECT_EQ(wd.records().size(), InvariantWatchdog::kMaxRecorded);
  EXPECT_EQ(wd.violations(), InvariantWatchdog::kMaxRecorded + 10);
}

TEST(Watchdog, ClearResets) {
  InvariantWatchdog wd;
  Frame f;
  f.g.tasks_sleeping = 42;
  wd.check(0, f.cores, 2, f.g);
  EXPECT_GT(wd.violations(), 0u);
  wd.clear();
  EXPECT_EQ(wd.checks(), 0u);
  EXPECT_EQ(wd.violations(), 0u);
  EXPECT_TRUE(wd.records().empty());
}

// End-to-end: a fig09-style oversubscribed run (VB parks, futex sleeps, BWD
// deschedules, migrations all active) sampled live must cross-check clean.
TEST(Watchdog, CleanOnRealOversubscribedRun) {
  metrics::RunConfig rc;
  rc.cpus = 8;
  rc.sockets = 2;
  rc.features = core::Features::optimized();
  rc.deadline = 600_s;
  rc.metrics.enabled = true;
  rc.metrics.interval = 200_us;
  const auto& spec = workloads::find_benchmark("cg");
  rc.ref_footprint = spec.ref_footprint();
  const auto r = metrics::run_experiment(rc, [&](kern::Kernel& k) {
    workloads::spawn_benchmark(k, spec, 32, /*seed=*/7, /*scale=*/0.05);
  });
  ASSERT_TRUE(r.completed);
  ASSERT_NE(r.metrics, nullptr);
  EXPECT_GT(r.metrics->watchdog_checks, 10u);
  EXPECT_EQ(r.metrics->watchdog_violations, 0u);
  EXPECT_TRUE(r.metrics->violation_records.empty());
  // The run actually exercised VB: parked counts must appear in the series.
  EXPECT_GT(r.metrics->ticks, 0u);
}

}  // namespace
}  // namespace eo::obs
