// Per-task delay accounting (sim-taskstats) contracts:
//  * arithmetic — `TaskDelayAcct` charges every interval to exactly one
//    state, so the state times always sum to the task's lifetime (the
//    conservation invariant, which holds by construction at run time and is
//    checked here);
//  * coverage — real kernel runs land time in the right states (on-CPU,
//    rq wait, futex/epoll blocking, timed sleep, VB parking, BWD skip delay,
//    post-migration wait);
//  * hot-path cost — a warm kernel accounts without touching the heap
//    (the shared allocation-counting harness in alloc_count.h);
//  * export — the `eo-taskstats` JSON section validates, and the validator
//    rejects every corruption of it (missing fields, wrong types, broken
//    conservation); the folded flamegraph export sanitizes hostile frames.
#include "obs/taskstats.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "common/json.h"
#include "common/units.h"
#include "kern/kernel.h"
#include "metrics/experiment.h"
#include "runtime/sim_thread.h"
#include "workloads/suite.h"

namespace eo::obs {
namespace {

SimDuration state_time(const TaskstatsRecord& r, TaskDelayState s) {
  return r.times[s];
}

/// The conservation invariant: every state time is non-negative and the
/// state times sum exactly to the lifetime.
bool conserved(const TaskDelayAcct& a, SimTime now) {
  const TaskDelaySnapshot s = a.snapshot(now);
  for (const SimDuration t : s.t) {
    if (t < 0) return false;
  }
  return s.total() == a.lifetime(now);
}

/// First record whose task name matches, or nullptr.
const TaskstatsRecord* find_task(const TaskstatsDoc& doc,
                                 const std::string& name) {
  for (const auto& r : doc.tasks) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

// --- TaskDelayAcct arithmetic ---------------------------------------------

TEST(TaskDelayAcct, ChargesEveryIntervalToExactlyOneState) {
  TaskDelayAcct a;
  a.start(100, TaskDelayState::kRunnable);
  a.transition(150, TaskDelayState::kOncpu);      // 50ns runnable
  a.transition(250, TaskDelayState::kFutexBlocked);  // 100ns oncpu
  a.transition(250, TaskDelayState::kVbParked);   // same-timestamp: free
  a.finish(400);                                  // 150ns vb_parked
  EXPECT_TRUE(a.started());
  EXPECT_TRUE(a.finished());
  EXPECT_EQ(a.lifetime(999), 300);
  const TaskDelaySnapshot s = a.snapshot(999);
  EXPECT_EQ(s[TaskDelayState::kRunnable], 50);
  EXPECT_EQ(s[TaskDelayState::kOncpu], 100);
  EXPECT_EQ(s[TaskDelayState::kFutexBlocked], 0);
  EXPECT_EQ(s[TaskDelayState::kVbParked], 150);
  EXPECT_EQ(s.total(), a.lifetime(999));
  EXPECT_TRUE(conserved(a, 999));
}

TEST(TaskDelayAcct, LiveSnapshotChargesOpenIntervalToCurrentState) {
  TaskDelayAcct a;
  a.start(0, TaskDelayState::kRunnable);
  a.transition(10, TaskDelayState::kOncpu);
  // Still on-CPU at t=70: the open interval belongs to kOncpu.
  const TaskDelaySnapshot s = a.snapshot(70);
  EXPECT_EQ(s[TaskDelayState::kRunnable], 10);
  EXPECT_EQ(s[TaskDelayState::kOncpu], 60);
  EXPECT_EQ(s.total(), a.lifetime(70));
  EXPECT_TRUE(conserved(a, 70));
  // The snapshot is a pure read: taking it twice changes nothing.
  const TaskDelaySnapshot s2 = a.snapshot(70);
  EXPECT_EQ(s2.total(), s.total());
}

TEST(TaskDelayAcct, IgnoresUseBeforeStartAndAfterFinish) {
  TaskDelayAcct a;
  a.transition(50, TaskDelayState::kOncpu);  // before start: no-op
  EXPECT_FALSE(a.started());
  EXPECT_TRUE(conserved(a, 50));
  EXPECT_EQ(a.lifetime(50), 0);
  a.start(100, TaskDelayState::kRunnable);
  a.finish(130);
  a.transition(200, TaskDelayState::kOncpu);  // after finish: no-op
  a.finish(300);                              // double finish: no-op
  EXPECT_EQ(a.lifetime(999), 30);
  EXPECT_EQ(a.snapshot(999)[TaskDelayState::kRunnable], 30);
  EXPECT_TRUE(conserved(a, 999));
}

TEST(TaskDelaySnapshot, DeltaIsComponentWise) {
  TaskDelayAcct a;
  a.start(0, TaskDelayState::kOncpu);
  const TaskDelaySnapshot early = a.snapshot(40);
  a.transition(100, TaskDelayState::kRunnable);
  const TaskDelaySnapshot late = a.snapshot(130);
  const TaskDelaySnapshot d = TaskDelaySnapshot::delta(late, early);
  EXPECT_EQ(d[TaskDelayState::kOncpu], 60);
  EXPECT_EQ(d[TaskDelayState::kRunnable], 30);
  EXPECT_EQ(d.total(), 90);  // exactly the window between the snapshots
}

// --- kernel-run conservation and state coverage ---------------------------

TEST(TaskstatsKernel, ComputeYieldRunConservesAndLandsCpuStates) {
  kern::KernelConfig c;
  c.topo = hw::Topology::make_cores(1, 1);
  kern::Kernel k(c);
  // Four oversubscribed compute+yield threads on one core: every task both
  // executes and waits in the runqueue.
  for (int i = 0; i < 4; ++i) {
    runtime::spawn(k, "spin", [](runtime::Env env) -> runtime::SimThread {
      for (int r = 0; r < 200; ++r) {
        co_await env.compute(10_us);
        co_await env.yield();
      }
      co_return;
    });
  }
  // Mid-run: live tasks must already conserve (open intervals included).
  k.run_until(3_ms);
  const TaskstatsDoc mid = k.snapshot_taskstats();
  ASSERT_EQ(mid.tasks.size(), 4u);
  for (const auto& r : mid.tasks) {
    EXPECT_FALSE(r.finished);
    EXPECT_EQ(r.times.total(), r.lifetime) << r.name << "/" << r.tid;
  }
  ASSERT_TRUE(k.run_to_exit(10_s));
  const TaskstatsDoc doc = k.snapshot_taskstats();
  ASSERT_EQ(doc.tasks.size(), 4u);
  for (const auto& r : doc.tasks) {
    EXPECT_TRUE(r.finished);
    EXPECT_GT(r.lifetime, 0);
    EXPECT_EQ(r.times.total(), r.lifetime) << r.name << "/" << r.tid;
    EXPECT_GT(state_time(r, TaskDelayState::kOncpu), 0);
    EXPECT_GT(state_time(r, TaskDelayState::kRunnable), 0);
  }
}

/// A strictly alternating futex ping-pong on two words. Each side publishes
/// its token (store 1) before waking, so a coalesced wake still leaves the
/// partner's next wait seeing the value and returning immediately — robust
/// under any scheduling, unlike a one-word pattern where a racing waker's
/// wakes coalesce and the waiter ends up waiting on a count it never sees.
void spawn_pingpong(kern::Kernel& k, const char* waiter_name,
                    const char* waker_name) {
  kern::SimWord* a = k.alloc_word(0);
  kern::SimWord* b = k.alloc_word(0);
  runtime::spawn(k, waiter_name,
                 [a, b](runtime::Env env) -> runtime::SimThread {
                   for (int r = 0; r < 50; ++r) {
                     co_await env.futex_wait(a, 0);
                     co_await env.store(a, 0);
                     co_await env.store(b, 1);
                     co_await env.futex_wake(b, 1);
                   }
                   co_return;
                 });
  runtime::spawn(k, waker_name,
                 [a, b](runtime::Env env) -> runtime::SimThread {
                   for (int r = 0; r < 50; ++r) {
                     co_await env.compute(5_us);
                     co_await env.store(a, 1);
                     co_await env.futex_wake(a, 1);
                     co_await env.futex_wait(b, 0);
                     co_await env.store(b, 0);
                   }
                   co_return;
                 });
}

TEST(TaskstatsKernel, BlockingStatesLandWhereTheyBelong) {
  kern::KernelConfig c;
  c.topo = hw::Topology::make_cores(2, 1);
  kern::Kernel k(c);  // vanilla features: waits really sleep
  spawn_pingpong(k, "fx-waiter", "fx-waker");
  const int epfd = k.epoll_create();
  runtime::spawn(k, "ep-waiter",
                 [epfd](runtime::Env env) -> runtime::SimThread {
                   for (int r = 0; r < 20; ++r) {
                     co_await env.epoll_wait(epfd);
                   }
                   co_return;
                 });
  runtime::spawn(k, "ep-poster",
                 [epfd](runtime::Env env) -> runtime::SimThread {
                   for (int r = 0; r < 20; ++r) {
                     co_await env.compute(20_us);
                     co_await env.epoll_post(epfd, 1);
                   }
                   co_return;
                 });
  runtime::spawn(k, "sleeper", [](runtime::Env env) -> runtime::SimThread {
    for (int r = 0; r < 10; ++r) {
      co_await env.sleep(50_us);
      co_await env.compute(1_us);
    }
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(10_s));
  const TaskstatsDoc doc = k.snapshot_taskstats();
  ASSERT_EQ(doc.tasks.size(), 5u);
  for (const auto& r : doc.tasks) {
    EXPECT_TRUE(r.finished);
    EXPECT_EQ(r.times.total(), r.lifetime) << r.name << "/" << r.tid;
  }
  const TaskstatsRecord* fx = find_task(doc, "fx-waiter");
  ASSERT_NE(fx, nullptr);
  EXPECT_GT(state_time(*fx, TaskDelayState::kFutexBlocked), 0);
  EXPECT_EQ(state_time(*fx, TaskDelayState::kVbParked), 0);  // vanilla
  const TaskstatsRecord* ep = find_task(doc, "ep-waiter");
  ASSERT_NE(ep, nullptr);
  EXPECT_GT(state_time(*ep, TaskDelayState::kEpollBlocked), 0);
  const TaskstatsRecord* sl = find_task(doc, "sleeper");
  ASSERT_NE(sl, nullptr);
  EXPECT_GT(state_time(*sl, TaskDelayState::kSleeping), 0);
}

TEST(TaskstatsKernel, VbParkingIsAccountedAsVbParkedNotBlocked) {
  kern::KernelConfig c;
  c.topo = hw::Topology::make_cores(1, 1);
  c.features.vb_futex = true;
  c.features.vb_auto_disable = false;  // park even below the core count
  kern::Kernel k(c);
  spawn_pingpong(k, "vb-waiter", "vb-waker");
  ASSERT_TRUE(k.run_to_exit(10_s));
  const TaskstatsDoc doc = k.snapshot_taskstats();
  const TaskstatsRecord* waiter = find_task(doc, "vb-waiter");
  ASSERT_NE(waiter, nullptr);
  EXPECT_EQ(waiter->times.total(), waiter->lifetime);
  EXPECT_GT(state_time(*waiter, TaskDelayState::kVbParked), 0);
  // A VB park is not a real sleep: no futex-blocked time on this path.
  EXPECT_EQ(state_time(*waiter, TaskDelayState::kFutexBlocked), 0);
}

/// Every task conserves time and spent some of it in `state`; the watchdog
/// sampled the run and found nothing.
void expect_state_reached(const kern::Kernel& k,
                          const std::vector<kern::Task*>& tasks,
                          TaskDelayState state) {
  for (const kern::Task* t : tasks) {
    const TaskDelaySnapshot s = t->delay.snapshot(k.now());
    EXPECT_TRUE(t->exited()) << t->name << "/" << t->tid;
    EXPECT_EQ(s.total(), t->delay.lifetime(k.now()))
        << t->name << "/" << t->tid;
    EXPECT_GT(s[state], 0) << t->name << "/" << t->tid << " never "
                           << to_string(state);
  }
  const MetricsDoc m = k.snapshot_metrics();
  EXPECT_GT(m.watchdog_checks, 0u);
  EXPECT_EQ(m.watchdog_violations, 0u);
}

TEST(TaskstatsKernel, BwdDetectionIsAccountedAsBwdSkipDelayed) {
  kern::KernelConfig c;
  c.topo = hw::Topology::make_cores(2, 1);
  c.features.bwd = true;
  c.metrics.enabled = true;
  kern::Kernel k(c);
  // Four spinners per core wait on a flag nobody sets, so each one spins on
  // a core while others are runnable and BWD deschedules and skips it.
  kern::SimWord* flag = k.alloc_word(0);
  std::vector<kern::Task*> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(runtime::spawn(
        k, "spinner", [flag](runtime::Env env) -> runtime::SimThread {
          for (int r = 0; r < 4; ++r) {
            co_await env.spin_until_timeout(flag, kern::SpinPredicate::eq(1),
                                            /*site=*/7, 1_ms);
            co_await env.compute(20_us);
          }
          co_return;
        }));
  }
  ASSERT_TRUE(k.run_to_exit(10_s));
  EXPECT_GT(k.stats().bwd_descheduled, 0u);
  expect_state_reached(k, tasks, TaskDelayState::kBwdSkipDelayed);
}

TEST(TaskstatsKernel, BalancePullsAndOffliningAreAccountedAsMigrating) {
  kern::KernelConfig c;
  c.topo = hw::Topology::make_cores(2, 1);
  c.metrics.enabled = true;
  kern::Kernel k(c);
  // All four workers start on core 1. The idle core 0's load balancer
  // (every 4 ms) pulls some of them over; offlining core 1 for good at 10 ms
  // evicts the rest to core 0. Either way each worker waits on a new core
  // before it first runs there, and each path is the only move of some
  // worker.
  runtime::SpawnOpts on_core1;
  on_core1.cpu = 1;
  std::vector<kern::Task*> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(runtime::spawn(
        k, "worker",
        [](runtime::Env env) -> runtime::SimThread {
          for (int r = 0; r < 400; ++r) co_await env.compute(50_us);
          co_return;
        },
        on_core1));
  }
  k.run_until(10_ms);
  k.set_online_cores(1);
  ASSERT_TRUE(k.run_to_exit(10_s));
  std::uint64_t pulls = 0;
  for (const auto& cv : k.snapshot_metrics().counters) {
    if (cv.name == "sched.balance.pulls") pulls = cv.value;
  }
  EXPECT_GT(pulls, 0u) << "no load-balance pull happened";
  expect_state_reached(k, tasks, TaskDelayState::kMigrating);
}

TEST(TaskstatsKernel, ExperimentRunExportsConservedDocWatchdogClean) {
  const auto& spec = workloads::find_benchmark("cg");
  metrics::RunConfig rc;
  rc.cpus = 4;
  rc.sockets = 1;
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
    EXPECT_EQ(t.times.total(), t.lifetime) << t.name << "/" << t.tid;
  }
  ASSERT_NE(r.metrics, nullptr);
  EXPECT_GT(r.metrics->watchdog_checks, 0u);
  EXPECT_EQ(r.metrics->watchdog_violations, 0u);
}

TEST(TaskstatsKernel, WarmAccountingIsAllocationFree) {
  kern::KernelConfig c;
  c.topo = hw::Topology::make_cores(2, 1);
  kern::Kernel k(c);
  kern::SimWord* w = k.alloc_word(0);
  // Futex ping-pong crosses every hot accounting site (oncpu, runnable,
  // futex-blocked transitions) thousands of times.
  runtime::spawn(k, "waiter", [w](runtime::Env env) -> runtime::SimThread {
    for (int r = 0; r < 3000; ++r) {
      co_await env.futex_wait(w, 0);
      co_await env.store(w, 0);
    }
    co_return;
  });
  runtime::spawn(k, "waker", [w](runtime::Env env) -> runtime::SimThread {
    for (int r = 0; r < 3000; ++r) {
      co_await env.compute(5_us);
      co_await env.store(w, 1);
      co_await env.futex_wake(w, 1);
    }
    co_return;
  });
  k.run_until(2_ms);  // warm
  const std::uint64_t n = allocs_during([&] { k.run_until(14_ms); });
  EXPECT_EQ(n, 0u) << "delay accounting touched the heap on the warm path";
  EXPECT_TRUE(k.run_to_exit(k.now() + 10_s));
}

// --- eo-taskstats JSON + validator corruption suite -----------------------

/// A small fully-consistent document (two tasks, exact conservation).
TaskstatsDoc sample_doc() {
  TaskstatsDoc doc;
  TaskstatsRecord a;
  a.tid = 1;
  a.name = "worker";
  a.finished = true;
  a.lifetime = 100;
  a.times.t[static_cast<std::size_t>(TaskDelayState::kOncpu)] = 60;
  a.times.t[static_cast<std::size_t>(TaskDelayState::kRunnable)] = 40;
  doc.tasks.push_back(a);
  TaskstatsRecord b;
  b.tid = 2;
  b.name = "io;weird name";  // hostile for the folded format
  b.finished = false;
  b.lifetime = 30;
  b.times.t[static_cast<std::size_t>(TaskDelayState::kFutexBlocked)] = 30;
  doc.tasks.push_back(b);
  return doc;
}

std::string render_json(const TaskstatsDoc& doc) {
  std::ostringstream os;
  json::Writer w(os);
  write_taskstats_json(w, doc);
  return os.str();
}

/// Validates `text` as an eo-taskstats section; returns the verdict and the
/// validator's error message via `err`.
bool validate_text(const std::string& text, std::string* err) {
  json::Value v;
  if (!json::parse(text, &v, err)) return false;
  return validate_taskstats_value(v, err);
}

/// Replaces the first occurrence of `from` (which must exist) with `to`.
std::string corrupt(const std::string& text, const std::string& from,
                    const std::string& to) {
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << "corruption anchor '" << from
                                    << "' not found in:\n"
                                    << text;
  std::string out = text;
  out.replace(pos, from.size(), to);
  return out;
}

TEST(TaskstatsJson, RenderedDocumentValidates) {
  std::string err;
  EXPECT_TRUE(validate_text(render_json(sample_doc()), &err)) << err;
}

TEST(TaskstatsJson, RenderedKernelSnapshotValidates) {
  kern::KernelConfig c;
  c.topo = hw::Topology::make_cores(2, 1);
  kern::Kernel k(c);
  for (int i = 0; i < 4; ++i) {
    runtime::spawn(k, "t", [](runtime::Env env) -> runtime::SimThread {
      for (int r = 0; r < 100; ++r) {
        co_await env.compute(10_us);
        co_await env.yield();
      }
      co_return;
    });
  }
  ASSERT_TRUE(k.run_to_exit(10_s));
  std::string err;
  EXPECT_TRUE(validate_text(render_json(k.snapshot_taskstats()), &err)) << err;
}

TEST(TaskstatsJson, ValidatorRejectsEveryCorruption) {
  const std::string good = render_json(sample_doc());
  struct Case {
    const char* what;
    const char* from;
    const char* to;
  };
  const Case cases[] = {
      {"wrong schema", "\"schema\":\"eo-taskstats\"",
       "\"schema\":\"eo-metrics\""},
      {"wrong schema version", "\"schema_version\":1", "\"schema_version\":2"},
      {"n_tasks/array mismatch", "\"n_tasks\":2", "\"n_tasks\":3"},
      {"tid wrong type", "\"tid\":1", "\"tid\":\"one\""},
      {"name wrong type", "\"name\":\"worker\"", "\"name\":17"},
      {"finished wrong type", "\"finished\":true", "\"finished\":1"},
      {"negative lifetime", "\"lifetime_ns\":100", "\"lifetime_ns\":-100"},
      {"missing state field", "\"oncpu_ns\":60,", ""},
      {"negative state time", "\"runnable_ns\":40", "\"runnable_ns\":-40"},
      {"broken conservation", "\"oncpu_ns\":60", "\"oncpu_ns\":61"},
      {"tasks not an array", "\"tasks\":[", "\"tasks\":0,\"x\":["},
  };
  for (const Case& c : cases) {
    std::string err;
    EXPECT_FALSE(validate_text(corrupt(good, c.from, c.to), &err))
        << "validator accepted: " << c.what;
    EXPECT_FALSE(err.empty()) << c.what;
  }
  // The conservation error names the culprit so a human can find the task.
  std::string err;
  ASSERT_FALSE(validate_text(corrupt(good, "\"oncpu_ns\":60", "\"oncpu_ns\":61"),
                             &err));
  EXPECT_NE(err.find("lifetime_ns"), std::string::npos) << err;
  EXPECT_NE(err.find("tid=1"), std::string::npos) << err;
  // Non-object roots are rejected, not crashed on.
  EXPECT_FALSE(validate_text("[1,2,3]", &err));
  EXPECT_FALSE(validate_text("42", &err));
}

// --- folded-stack flamegraph export ---------------------------------------

TEST(TaskstatsFolded, RendersOneLinePerNonzeroStateSanitized) {
  const std::string folded = render_folded(sample_doc(), "serve test");
  // ';' and whitespace are format delimiters: sanitized out of every frame.
  EXPECT_EQ(folded,
            "serve_test;worker/1;oncpu 60\n"
            "serve_test;worker/1;runnable 40\n"
            "serve_test;io:weird_name/2;futex_blocked 30\n");
}

TEST(TaskstatsFolded, EmptyNamesGetPlaceholderFrames) {
  TaskstatsDoc doc;
  TaskstatsRecord r;
  r.tid = 9;
  r.lifetime = 5;
  r.times.t[static_cast<std::size_t>(TaskDelayState::kOncpu)] = 5;
  doc.tasks.push_back(r);
  EXPECT_EQ(render_folded(doc, ""), "?;?/9;oncpu 5\n");
}

}  // namespace
}  // namespace eo::obs
