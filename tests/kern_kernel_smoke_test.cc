// End-to-end smoke tests of the simulated kernel: task execution, compute
// timing, yielding, fair sharing, spinning, futex blocking, and exits.
#include "kern/kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "runtime/env.h"
#include "runtime/sim_thread.h"

namespace eo {
namespace {

using kern::Kernel;
using kern::KernelConfig;
using runtime::Env;
using runtime::SimThread;

KernelConfig one_core() {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(1, 1);
  return c;
}

TEST(KernelSmoke, SingleComputeTaskRunsAndExits) {
  Kernel k(one_core());
  SimTime done_at = -1;
  runtime::spawn(k, "t", [&done_at](Env env) -> SimThread {
    co_await env.compute(10_ms);
    done_at = env.now();
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(1_s));
  EXPECT_GE(done_at, 10_ms);
  // Overheads (idle kick, context switch) are small.
  EXPECT_LE(done_at, 10_ms + 100_us);
  EXPECT_EQ(k.live_tasks(), 0);
}

TEST(KernelSmoke, TwoTasksTimeShareOneCore) {
  Kernel k(one_core());
  SimTime end_a = 0, end_b = 0;
  runtime::spawn(k, "a", [&end_a](Env env) -> SimThread {
    co_await env.compute(20_ms);
    end_a = env.now();
    co_return;
  });
  runtime::spawn(k, "b", [&end_b](Env env) -> SimThread {
    co_await env.compute(20_ms);
    end_b = env.now();
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(1_s));
  // Both need ~40ms wall in total on one core; each should finish near 40ms
  // (they interleave), certainly not at 20ms.
  EXPECT_GE(end_a, 35_ms);
  EXPECT_GE(end_b, 35_ms);
  EXPECT_LE(std::max(end_a, end_b), 45_ms);
  EXPECT_GT(k.stats().context_switches, 10u);
}

TEST(KernelSmoke, TwoCoresRunInParallel) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(2, 1);
  Kernel k(c);
  SimTime end_a = 0, end_b = 0;
  runtime::spawn(k, "a", [&end_a](Env env) -> SimThread {
    co_await env.compute(20_ms);
    end_a = env.now();
    co_return;
  });
  runtime::spawn(k, "b", [&end_b](Env env) -> SimThread {
    co_await env.compute(20_ms);
    end_b = env.now();
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(1_s));
  EXPECT_LE(end_a, 21_ms);
  EXPECT_LE(end_b, 21_ms);
}

TEST(KernelSmoke, YieldAlternatesTasks) {
  Kernel k(one_core());
  std::vector<int> order;
  for (int i = 0; i < 2; ++i) {
    runtime::spawn(k, "y" + std::to_string(i),
                   [&order, i](Env env) -> SimThread {
                     for (int r = 0; r < 5; ++r) {
                       co_await env.compute(100_us);
                       order.push_back(i);
                       co_await env.yield();
                     }
                     co_return;
                   });
  }
  ASSERT_TRUE(k.run_to_exit(1_s));
  ASSERT_EQ(order.size(), 10u);
  // With equal vruntime and yields, execution strictly alternates.
  int alternations = 0;
  for (size_t j = 1; j < order.size(); ++j) {
    if (order[j] != order[j - 1]) ++alternations;
  }
  EXPECT_GE(alternations, 7);
}

TEST(KernelSmoke, AtomicOpsWork) {
  Kernel k(one_core());
  kern::SimWord* w = k.alloc_word(5);
  std::uint64_t loaded = 0, old_faa = 0, old_xchg = 0;
  std::uint64_t cas_ok = 99, cas_fail = 99;
  runtime::spawn(k, "atomics", [&, w](Env env) -> SimThread {
    loaded = co_await env.load(w);
    old_faa = co_await env.fetch_add(w, 3);     // 5 -> 8
    cas_fail = co_await env.cas(w, 5, 100);     // fails, still 8
    cas_ok = co_await env.cas(w, 8, 20);        // 8 -> 20
    old_xchg = co_await env.exchange(w, 7);     // 20 -> 7
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(1_s));
  EXPECT_EQ(loaded, 5u);
  EXPECT_EQ(old_faa, 5u);
  EXPECT_EQ(cas_fail, 0u);
  EXPECT_EQ(cas_ok, 1u);
  EXPECT_EQ(old_xchg, 20u);
  EXPECT_EQ(w->peek(), 7u);
}

// Atomics run inside the awaiter, without suspending: no simulated time
// passes, and each one adds costs.atomic_op to the task's overhead, which
// the scheduler charges at the next boundary (here: the exit).
TEST(KernelSmoke, AtomicsChargeTheirCostAtTheNextBoundary) {
  constexpr int kAtomics = 40;
  struct Run {
    SimTime exit_time;
    SimDuration cpu_time;
    SimDuration sum_exec;
  };
  auto run = [](int n_atomics) {
    Kernel k(one_core());
    kern::SimWord* w = k.alloc_word(0);
    runtime::spawn(k, "t", [w, n_atomics](Env env) -> SimThread {
      co_await env.compute(1_ms);
      for (int i = 0; i < n_atomics; ++i) co_await env.fetch_add(w, 1);
      co_return;
    });
    EXPECT_TRUE(k.run_to_exit(1_s));
    EXPECT_EQ(w->peek(), static_cast<std::uint64_t>(n_atomics));
    const kern::Task& t = *k.tasks().front();
    return Run{k.last_exit_time(), t.stats.cpu_time, t.se.sum_exec};
  };
  const Run none = run(0);
  const Run some = run(kAtomics);
  EXPECT_EQ(some.exit_time, none.exit_time);
  EXPECT_EQ(some.cpu_time, none.cpu_time);
  EXPECT_EQ(some.sum_exec - none.sum_exec,
            kAtomics * one_core().costs.atomic_op);
}

TEST(KernelSmoke, InlineStoreReleasesARunningSpinnerAfterSpinObserve) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(2, 1);
  Kernel k(c);
  kern::SimWord* flag = k.alloc_word(0);
  SimTime spin_done = -1;
  SimTime stored_at = -1;
  runtime::SpawnOpts on0, on1;
  on0.pin_cpu = 0;
  on1.pin_cpu = 1;
  runtime::spawn(
      k, "spinner",
      [&, flag](Env env) -> SimThread {
        co_await env.spin_until_eq(flag, 1, 1);
        spin_done = env.now();
        co_return;
      },
      on0);
  runtime::spawn(
      k, "setter",
      [&, flag](Env env) -> SimThread {
        // Mid-slice for the spinner, so it is on its core spinning when the
        // store lands.
        co_await env.compute(2_ms + 123_us);
        co_await env.store(flag, 1);
        stored_at = env.now();
        co_return;
      },
      on1);
  ASSERT_TRUE(k.run_to_exit(1_s));
  ASSERT_GE(stored_at, 2_ms);
  EXPECT_EQ(spin_done, stored_at + c.costs.spin_observe);
}

TEST(KernelSmoke, SpinUntilReleasedByStore) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(2, 1);
  Kernel k(c);
  kern::SimWord* flag = k.alloc_word(0);
  SimTime spin_done = -1;
  runtime::spawn(k, "spinner", [&, flag](Env env) -> SimThread {
    co_await env.spin_until_eq(flag, 1, 1);
    spin_done = env.now();
    co_return;
  });
  runtime::spawn(k, "setter", [flag](Env env) -> SimThread {
    co_await env.compute(5_ms);
    co_await env.store(flag, 1);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(1_s));
  // The spinner observes the store within the coherence delay.
  EXPECT_GE(spin_done, 5_ms);
  EXPECT_LE(spin_done, 5_ms + 50_us);
  // Spinning burned ~5ms of CPU.
  EXPECT_GE(k.total_spin_busy(), 4_ms);
}

TEST(KernelSmoke, SpinTimeoutFires) {
  Kernel k(one_core());
  kern::SimWord* flag = k.alloc_word(0);
  std::uint64_t result = 99;
  SimTime end = 0;
  runtime::spawn(k, "spin-to", [&, flag](Env env) -> SimThread {
    result = co_await env.spin_until_timeout(
        flag, kern::SpinPredicate::eq(1), 1, 2_ms);
    end = env.now();
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(1_s));
  EXPECT_EQ(result, 0u);
  EXPECT_GE(end, 2_ms);
  EXPECT_LE(end, 3_ms);
}

TEST(KernelSmoke, FutexWaitWake) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(2, 1);
  Kernel k(c);
  kern::SimWord* w = k.alloc_word(0);
  std::uint64_t wait_rc = 99;
  SimTime woke_at = -1;
  std::uint64_t n_woken = 99;
  runtime::spawn(k, "waiter", [&, w](Env env) -> SimThread {
    wait_rc = co_await env.futex_wait(w, 0);
    woke_at = env.now();
    co_return;
  });
  runtime::spawn(k, "waker", [&, w](Env env) -> SimThread {
    co_await env.compute(3_ms);
    co_await env.store(w, 1);
    n_woken = co_await env.futex_wake(w, 1);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(1_s));
  EXPECT_EQ(wait_rc, 0u);
  EXPECT_EQ(n_woken, 1u);
  EXPECT_GE(woke_at, 3_ms);
  EXPECT_LE(woke_at, 3_ms + 100_us);
  // The waiter slept (no busy-wait): spin time ~0.
  EXPECT_LE(k.total_spin_busy(), 100_us);
}

TEST(KernelSmoke, FutexWaitValueMismatchReturnsEwouldblock) {
  Kernel k(one_core());
  kern::SimWord* w = k.alloc_word(7);
  std::uint64_t rc = 99;
  runtime::spawn(k, "waiter", [&, w](Env env) -> SimThread {
    rc = co_await env.futex_wait(w, 0);  // value is 7, expected 0
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(1_s));
  EXPECT_EQ(rc, 1u);
}

TEST(KernelSmoke, FutexWakeWithNoWaiters) {
  Kernel k(one_core());
  kern::SimWord* w = k.alloc_word(0);
  std::uint64_t n = 99;
  runtime::spawn(k, "waker", [&, w](Env env) -> SimThread {
    n = co_await env.futex_wake(w, 10);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(1_s));
  EXPECT_EQ(n, 0u);
}

TEST(KernelSmoke, SleepWakesAfterDuration) {
  Kernel k(one_core());
  SimTime woke = -1;
  runtime::spawn(k, "sleeper", [&](Env env) -> SimThread {
    co_await env.sleep(7_ms);
    woke = env.now();
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(1_s));
  EXPECT_GE(woke, 7_ms);
  EXPECT_LE(woke, 7_ms + 100_us);
}

TEST(KernelSmoke, EpollPostThenWait) {
  Kernel k(one_core());
  const int ep = k.epoll_create();
  std::uint64_t got = 0;
  runtime::spawn(k, "worker", [&, ep](Env env) -> SimThread {
    got = co_await env.epoll_wait(ep);
    co_return;
  });
  k.engine().schedule_at(2_ms, [&k, ep] { k.epoll_post_external(ep, 1234); });
  ASSERT_TRUE(k.run_to_exit(1_s));
  EXPECT_EQ(got, 1234u);
}

TEST(KernelSmoke, EpollWaitConsumesBufferedEvent) {
  Kernel k(one_core());
  const int ep = k.epoll_create();
  k.epoll_post_external(ep, 55);  // buffered before any waiter
  std::uint64_t got = 0;
  runtime::spawn(k, "worker", [&, ep](Env env) -> SimThread {
    got = co_await env.epoll_wait(ep);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(1_s));
  EXPECT_EQ(got, 55u);
}

TEST(KernelSmoke, ManyTasksAllExit) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(4, 2);
  Kernel k(c);
  for (int i = 0; i < 64; ++i) {
    runtime::spawn(k, "t" + std::to_string(i), [](Env env) -> SimThread {
      for (int r = 0; r < 10; ++r) {
        co_await env.compute(200_us);
        co_await env.yield();
      }
      co_return;
    });
  }
  ASSERT_TRUE(k.run_to_exit(10_s));
  EXPECT_EQ(k.live_tasks(), 0);
  for (const auto& t : k.tasks()) {
    EXPECT_TRUE(t->exited()) << t->name;
    EXPECT_GE(t->stats.cpu_time, 2_ms - 100_us) << t->name;
  }
}

TEST(KernelSmoke, UtilizationNearFullWhenComputeBound) {
  Kernel k(one_core());
  runtime::spawn(k, "busy", [](Env env) -> SimThread {
    co_await env.compute(50_ms);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(1_s));
  // Busy time over the workload's actual span (not the chunked clock).
  const double util = static_cast<double>(k.total_busy()) /
                      static_cast<double>(k.last_exit_time()) * 100.0;
  EXPECT_GE(util, 95.0);
  EXPECT_LE(util, 100.5);
}

std::uint64_t counter_value(const Kernel& k, const std::string& name) {
  for (const auto& c : k.metric_registry().snapshot_counters()) {
    if (c.name == name) return c.value;
  }
  ADD_FAILURE() << "no counter " << name;
  return 0;
}

// Registration order is the export order. Each lock and policy counter pair
// registers its subset before its total, as every exported document lists
// them; the kernel sequences the two registrations, so no compiler's
// argument-evaluation order can swap them.
TEST(KernelSmoke, PairedCountersRegisterInExportOrder) {
  const Kernel k(one_core());
  std::vector<std::string> names;
  for (const auto& c : k.metric_registry().snapshot_counters()) {
    names.push_back(c.name);
  }
  const std::vector<std::string> expected = {
      "futex.bucket_locks_contended", "futex.bucket_locks",
      "epoll.instance_locks_contended", "epoll.instance_locks",
      "vb.chose_vb", "vb.decisions",
      "bwd.windows_detected", "bwd.windows_evaluated"};
  const auto first = std::find(names.begin(), names.end(), expected.front());
  ASSERT_LE(first + static_cast<std::ptrdiff_t>(expected.size()), names.end());
  EXPECT_EQ(std::vector<std::string>(
                first, first + static_cast<std::ptrdiff_t>(expected.size())),
            expected);
}

// The VB and BWD counters are second names of kernel cells: every blocking
// decision ends in exactly one park or sleep, a VB choice is a park, and
// the detector runs once per BWD timer fire. A VB+BWD run that takes futex
// sleeps, epoll sleeps, VB parks and detections exports them equal.
TEST(KernelSmoke, VbAndBwdCountersEqualTheSchedStatsTheyAlias) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(2, 1);
  c.features = core::Features::optimized();
  Kernel k(c);
  kern::SimWord* flag = k.alloc_word(0);
  kern::SimWord* w = k.alloc_word(0);
  const int ep = k.epoll_create();
  // Spins until the setter releases it: pure spin windows for BWD.
  runtime::spawn(k, "spinner", [flag](Env env) -> SimThread {
    co_await env.spin_until_eq(flag, 1, 1);
    co_return;
  });
  // Four futex waiters on two cores: the first sleeps (VB auto-disabled
  // below the core count), the later ones park.
  for (int i = 0; i < 4; ++i) {
    runtime::spawn(k, "waiter", [w](Env env) -> SimThread {
      co_await env.futex_wait(w, 0);
      co_return;
    });
  }
  // A lone epoll waiter sleeps.
  runtime::spawn(k, "worker", [ep](Env env) -> SimThread {
    co_await env.epoll_wait(ep);
    co_return;
  });
  runtime::spawn(k, "setter", [flag, w, ep](Env env) -> SimThread {
    co_await env.compute(20_ms);
    co_await env.store(flag, 1);
    co_await env.store(w, 1);
    co_await env.futex_wake(w, 4);
    co_await env.epoll_post(ep, 1);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(1_s));

  const obs::MetricsDoc doc = k.snapshot_metrics();
  const auto value = [&doc](const char* name) {
    for (const auto& cv : doc.counters) {
      if (cv.name == name) return cv.value;
    }
    ADD_FAILURE() << "no counter " << name;
    return std::uint64_t{0};
  };
  const std::uint64_t parks = value("sched.vb_parks");
  const std::uint64_t futex_sleeps = value("sched.futex_sleeps");
  const std::uint64_t epoll_sleeps = value("sched.epoll_sleeps");
  const std::uint64_t fires = value("sched.bwd_timer_fires");
  const std::uint64_t detections = value("sched.bwd_detections");
  EXPECT_GT(parks, 0u);
  EXPECT_GT(futex_sleeps, 0u);
  EXPECT_GT(epoll_sleeps, 0u);
  EXPECT_GT(fires, 0u);
  EXPECT_GT(detections, 0u);
  EXPECT_EQ(value("vb.chose_vb"), parks);
  EXPECT_EQ(value("vb.decisions"), parks + futex_sleeps + epoll_sleeps);
  EXPECT_EQ(value("bwd.windows_evaluated"), fires);
  EXPECT_EQ(value("bwd.windows_detected"), detections);
}

// A task alone on its core does not renew its slice in place: every expiry
// goes back through the scheduler, which picks the same task again. The
// re-pick is not a context switch (same task), so only the pick count moves,
// once per 3 ms slice (CFS sched_latency with one runnable task).
TEST(KernelSmoke, LoneComputeTaskIsRepickedAtEachSliceExpiry) {
  Kernel k(one_core());
  runtime::spawn(k, "lone", [](Env env) -> SimThread {
    co_await env.compute(40_ms);
    co_return;
  });
  k.run_until(10_ms);
  const std::uint64_t picks = counter_value(k, "sched.rq.picks");
  const std::uint64_t switches = k.stats().context_switches;
  k.run_until(10_ms + 8 * 3_ms);
  EXPECT_EQ(counter_value(k, "sched.rq.picks") - picks, 8u);
  EXPECT_EQ(k.stats().context_switches, switches);
  ASSERT_TRUE(k.run_to_exit(1_s));
}

}  // namespace
}  // namespace eo
