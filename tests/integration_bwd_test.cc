// Integration tests of busy-waiting detection end-to-end.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "locks/spinlocks.h"
#include "metrics/experiment.h"
#include "workloads/microbench.h"
#include "workloads/pipeline.h"
#include "workloads/suite.h"

namespace eo {
namespace {

using metrics::RunConfig;
using metrics::run_experiment;

TEST(BwdIntegration, DeschedulesOversubscribedSpinners) {
  RunConfig rc;
  rc.cpus = 2;
  rc.sockets = 1;
  core::Features f;
  f.bwd = true;
  rc.features = f;
  rc.deadline = 300_s;
  const auto r = run_experiment(rc, [&](kern::Kernel& k) {
    workloads::PipelineConfig pc;
    pc.n_stages = 8;
    pc.items = 50;
    pc.stage_work = 50_us;
    workloads::spawn_spin_pipeline(k, pc);
  });
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.stats.bwd_descheduled, 20u);
  EXPECT_GT(r.bwd.sensitivity(), 0.95);
}

TEST(BwdIntegration, SpeedsUpOversubscribedSpinPipeline) {
  auto run = [&](bool bwd) {
    RunConfig rc;
    rc.cpus = 2;
    rc.sockets = 1;
    core::Features f;
    f.bwd = bwd;
    rc.features = f;
    rc.deadline = 600_s;
    return run_experiment(rc, [&](kern::Kernel& k) {
      workloads::PipelineConfig pc;
      pc.n_stages = 8;
      pc.items = 60;
      pc.stage_work = 50_us;
      workloads::spawn_spin_pipeline(k, pc);
    });
  };
  const auto vanilla = run(false);
  const auto bwd = run(true);
  ASSERT_TRUE(vanilla.completed && bwd.completed);
  EXPECT_LT(bwd.exec_time, vanilla.exec_time)
      << "BWD must recover CPU from futile spinning";
  EXPECT_LT(bwd.spin_busy, vanilla.spin_busy / 2);
}

TEST(BwdIntegration, NoHarmWithoutOversubscription) {
  // 8 spinning stages on 8 cores: spinners have dedicated cores, and BWD's
  // descheduling must not slow the pipeline down materially (nothing else
  // to run; the skip expires trivially).
  auto run = [&](bool bwd) {
    RunConfig rc;
    rc.cpus = 8;
    rc.sockets = 1;
    core::Features f;
    f.bwd = bwd;
    rc.features = f;
    rc.deadline = 300_s;
    return run_experiment(rc, [&](kern::Kernel& k) {
      workloads::PipelineConfig pc;
      pc.n_stages = 8;
      pc.items = 60;
      pc.stage_work = 50_us;
      workloads::spawn_spin_pipeline(k, pc);
    });
  };
  const auto vanilla = run(false);
  const auto bwd = run(true);
  ASSERT_TRUE(vanilla.completed && bwd.completed);
  EXPECT_LT(bwd.exec_time, vanilla.exec_time * 3 / 2);
}

TEST(BwdIntegration, FalsePositiveRateLowOnBlockingWorkload) {
  const auto& spec = workloads::find_benchmark("ft");
  RunConfig rc;
  rc.cpus = 8;
  rc.sockets = 2;
  core::Features f;
  f.bwd = true;
  rc.features = f;
  rc.ref_footprint = spec.ref_footprint();
  rc.deadline = 300_s;
  const auto r = run_experiment(rc, [&](kern::Kernel& k) {
    workloads::spawn_benchmark(k, spec, 32, 3, 0.1);
  });
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.bwd.windows, 100u);
  EXPECT_GT(r.bwd.specificity(), 0.99);
}

// Table 2 at the bench's default scale (0.5: each lock held for 2 s of
// simulated time, ~1334 spin windows): the paper reports 99.76-99.90% over
// the ten spinlocks, so every lock must reach 99.7% here.
TEST(BwdIntegration, Table2SensitivityAtPaperFloorForEverySpinlock) {
  for (const locks::SpinLockKind kind : locks::all_spinlock_kinds()) {
    RunConfig rc;
    rc.cpus = 1;
    rc.sockets = 1;
    rc.features = core::Features::optimized();
    rc.deadline = 7_s;
    const auto r = run_experiment(rc, [&](kern::Kernel& k) {
      auto lock = std::shared_ptr<locks::SpinLock>(
          locks::make_spinlock(kind, k, 2));
      workloads::spawn_tp_pair(k, lock, 2_s);
    });
    ASSERT_TRUE(r.completed) << locks::to_string(kind);
    const auto tries = r.bwd.tp + r.bwd.fn;
    EXPECT_GT(tries, 1000u) << locks::to_string(kind);
    EXPECT_GE(r.bwd.sensitivity(), 0.997)
        << locks::to_string(kind) << ": " << r.bwd.tp << " of " << tries;
  }
}

// Table 3 at scale 0.25 with the benches' default workload seed (7): the
// paper's lowest specificity over the NPB apps is 99.38%, so every app must
// reach it here. Vanilla blocking plus BWD, as in the bench, so every
// window is a negative and every detection a false positive.
TEST(BwdIntegration, Table3SpecificityAtPaperFloorForEveryNpbApp) {
  for (const std::string name : {"is", "ep", "cg", "mg", "ft", "sp", "bt",
                                 "ua"}) {
    const auto& spec = workloads::find_benchmark(name);
    RunConfig rc;
    rc.cpus = 8;
    rc.sockets = 2;
    core::Features f;
    f.bwd = true;
    rc.features = f;
    rc.ref_footprint = spec.ref_footprint();
    rc.deadline = 600_s;
    const auto r = run_experiment(rc, [&](kern::Kernel& k) {
      workloads::spawn_benchmark(k, spec, 32, 7, 0.25);
    });
    ASSERT_TRUE(r.completed) << name;
    EXPECT_EQ(r.bwd.tp + r.bwd.fn, 0u) << name << " has no true spinning";
    EXPECT_GT(r.bwd.windows, 5000u) << name;
    EXPECT_GE(r.bwd.specificity(), 0.9938)
        << name << ": " << r.bwd.fp << " FPs in " << r.bwd.windows;
  }
}

TEST(BwdIntegration, PleChargesExitsOnlyForPauseSpinsInVm) {
  auto run = [&](bool vm, bool pause) {
    RunConfig rc;
    rc.cpus = 2;
    rc.sockets = 1;
    rc.features = vm ? core::Features::vm_ple() : core::Features::vanilla();
    rc.deadline = 600_s;
    return run_experiment(rc, [&](kern::Kernel& k) {
      workloads::PipelineConfig pc;
      pc.n_stages = 8;
      pc.items = 30;
      pc.stage_work = 50_us;
      pc.uses_pause = pause;
      workloads::spawn_spin_pipeline(k, pc);
    });
  };
  const auto native = run(false, true);
  const auto vm_nopause = run(true, false);
  const auto vm_pause = run(true, true);
  ASSERT_TRUE(native.completed && vm_nopause.completed && vm_pause.completed);
  EXPECT_EQ(native.stats.ple_exits, 0u);
  EXPECT_EQ(vm_nopause.stats.ple_exits, 0u)
      << "PLE cannot see spin loops without PAUSE (paper Figure 14)";
  EXPECT_GT(vm_pause.stats.ple_exits, 0u);
  // ...and even then it does not rescue the workload (vCPU granularity).
  EXPECT_GE(vm_pause.exec_time, native.exec_time * 9 / 10);
}

}  // namespace
}  // namespace eo
