// Edge-case tests of the kernel: preemption timing, SMT throughput, epoll
// corner cases, futex wake counts, and VB interaction with wakeup ordering.
#include <gtest/gtest.h>

#include <limits>

#include "futex/futex.h"
#include "kern/kernel.h"
#include "runtime/sim_thread.h"

namespace eo {
namespace {

using kern::Kernel;
using kern::KernelConfig;
using runtime::Env;
using runtime::SimThread;

TEST(KernelEdge, WakeupPreemptsLongRunner) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(1, 1);
  Kernel k(c);
  SimTime reacted = -1;
  runtime::spawn(k, "hog", [](Env env) -> SimThread {
    co_await env.compute(100_ms);
    co_return;
  });
  runtime::spawn(k, "sleeper", [&reacted](Env env) -> SimThread {
    co_await env.sleep(5_ms);
    reacted = env.now();  // must not wait for the hog's full compute
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(1_s));
  EXPECT_GE(reacted, 5_ms);
  EXPECT_LE(reacted, 5_ms + 2_ms) << "sleeper-fairness preemption missing";
}

TEST(KernelEdge, SmtSiblingsShareThroughput) {
  auto run = [](bool smt, int threads) {
    KernelConfig c;
    c.topo = smt ? hw::Topology::make_smt(2, 1) : hw::Topology::make_cores(2, 1);
    Kernel k(c);
    for (int i = 0; i < threads; ++i) {
      runtime::spawn(k, "t", [](Env env) -> SimThread {
        co_await env.compute(10_ms);
        co_return;
      });
    }
    k.run_to_exit(10_s);
    return k.last_exit_time();
  };
  const auto cores2 = run(false, 2);
  const auto ht2 = run(true, 2);
  // Two busy hyper-threads run at ~60% each: ~1.67x the full-core time.
  EXPECT_GT(ht2, cores2 * 3 / 2);
  EXPECT_LT(ht2, cores2 * 2);
  // A lone thread on an SMT pair runs at full speed.
  const auto ht1 = run(true, 1);
  EXPECT_LE(ht1, run(false, 1) + 1_ms);
}

TEST(KernelEdge, FutexWakeCountsAndOrder) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(4, 1);
  Kernel k(c);
  kern::SimWord* w = k.alloc_word(0);
  std::vector<int> wake_order;
  for (int i = 0; i < 3; ++i) {
    runtime::spawn(k, "w" + std::to_string(i),
                   [&wake_order, w, i](Env env) -> SimThread {
                     co_await env.compute((i + 1) * 100_us);  // stagger arrival
                     co_await env.futex_wait(w, 0);
                     wake_order.push_back(i);
                     co_return;
                   });
  }
  std::uint64_t n1 = 99, n2 = 99;
  runtime::spawn(k, "waker", [&, w](Env env) -> SimThread {
    co_await env.compute(2_ms);  // let all three park
    co_await env.store(w, 1);
    n1 = co_await env.futex_wake(w, 2);
    co_await env.compute(2_ms);
    n2 = co_await env.futex_wake(w, 10);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(5_s));
  EXPECT_EQ(n1, 2u);
  EXPECT_EQ(n2, 1u);
  // FIFO: earliest waiter woken first.
  ASSERT_EQ(wake_order.size(), 3u);
  EXPECT_EQ(wake_order[0], 0);
  EXPECT_EQ(wake_order[1], 1);
  EXPECT_EQ(wake_order[2], 2);
}

TEST(KernelEdge, EpollMultipleEventsBuffered) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(1, 1);
  Kernel k(c);
  const int ep = k.epoll_create();
  for (std::uint64_t d = 1; d <= 3; ++d) k.epoll_post_external(ep, d);
  std::vector<std::uint64_t> got;
  runtime::spawn(k, "w", [&, ep](Env env) -> SimThread {
    for (int i = 0; i < 3; ++i) got.push_back(co_await env.epoll_wait(ep));
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(1_s));
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(KernelEdge, EpollTaskToTaskPost) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(2, 1);
  Kernel k(c);
  const int ep = k.epoll_create();
  std::uint64_t got = 0;
  runtime::spawn(k, "consumer", [&, ep](Env env) -> SimThread {
    got = co_await env.epoll_wait(ep);
    co_return;
  });
  runtime::spawn(k, "producer", [ep](Env env) -> SimThread {
    co_await env.compute(1_ms);
    co_await env.epoll_post(ep, 77);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(1_s));
  EXPECT_EQ(got, 77u);
}

TEST(KernelEdge, BlockingEpollWaitCountsAsEpollSleep) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(1, 1);
  c.features = core::Features::vanilla();
  Kernel k(c);
  const int ep = k.epoll_create();
  k.epoll_post_external(ep, 1);  // the first wait finds it and never sleeps
  std::vector<std::uint64_t> got;
  runtime::spawn(k, "w", [&, ep](Env env) -> SimThread {
    for (int i = 0; i < 2; ++i) got.push_back(co_await env.epoll_wait(ep));
    co_return;
  });
  k.engine().schedule_at(2_ms, [&k, ep] { k.epoll_post_external(ep, 2); });
  ASSERT_TRUE(k.run_to_exit(1_s));
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(k.stats().epoll_sleeps, 1u);
  EXPECT_EQ(k.stats().futex_sleeps, 0u);
}

TEST(KernelEdge, EpollWakesWaitersOldestFirstWithTheirOwnPayload) {
  // Four waiters block in turn (waiter i at 10 + 100·i µs); four posts 1 ms
  // apart then each wake exactly one. For both blocking modes and both post
  // sources, waiter i must be the i-th woken and receive the i-th payload.
  constexpr int kWaiters = 4;
  for (const bool vb : {false, true}) {
    for (const bool from_task : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "vb=" << vb << " from_task=" << from_task);
      KernelConfig c;
      c.topo = hw::Topology::make_cores(1, 1);
      c.features.vb_epoll = vb;
      c.features.vb_auto_disable = false;
      Kernel k(c);
      const int ep = k.epoll_create();
      std::vector<int> woken;
      std::vector<std::uint64_t> payload(kWaiters, 0);
      for (int i = 0; i < kWaiters; ++i) {
        runtime::spawn(k, "w", [&, ep, i](Env env) -> SimThread {
          co_await env.sleep(10_us + i * 100_us);
          payload[static_cast<size_t>(i)] = co_await env.epoll_wait(ep);
          woken.push_back(i);
          co_return;
        });
      }
      if (from_task) {
        runtime::spawn(k, "poster", [ep](Env env) -> SimThread {
          for (int i = 0; i < kWaiters; ++i) {
            co_await env.sleep(1_ms);
            co_await env.epoll_post(ep, 100 + static_cast<std::uint64_t>(i));
          }
          co_return;
        });
      } else {
        for (int i = 0; i < kWaiters; ++i) {
          k.engine().schedule_at((i + 1) * 1_ms, [&k, ep, i] {
            k.epoll_post_external(ep, 100 + static_cast<std::uint64_t>(i));
          });
        }
      }
      ASSERT_TRUE(k.run_to_exit(1_s));
      EXPECT_EQ(woken, (std::vector<int>{0, 1, 2, 3}));
      EXPECT_EQ(payload, (std::vector<std::uint64_t>{100, 101, 102, 103}));
      EXPECT_EQ(k.stats().epoll_sleeps, vb ? 0u : 4u);
      EXPECT_EQ(k.stats().vb_parks, vb ? 4u : 0u);
    }
  }
}

TEST(KernelEdge, EpollWaiterSurvivesLaterInstanceCreation) {
  // A task blocked on instance 0 stays reachable after many more instances
  // are created (the table must not move an instance its waiters sit on).
  KernelConfig c;
  c.topo = hw::Topology::make_cores(1, 1);
  Kernel k(c);
  const int ep0 = k.epoll_create();
  std::uint64_t got = 0;
  runtime::spawn(k, "w", [&, ep0](Env env) -> SimThread {
    got = co_await env.epoll_wait(ep0);
    co_return;
  });
  k.run_until(1_ms);
  ASSERT_EQ(got, 0u);
  std::vector<int> more;
  for (int i = 0; i < 20; ++i) more.push_back(k.epoll_create());
  EXPECT_EQ(more.back(), ep0 + 20);
  for (const int ep : more) k.epoll_post_external(ep, 1);
  k.epoll_post_external(ep0, 42);
  ASSERT_TRUE(k.run_to_exit(1_s));
  EXPECT_EQ(got, 42u);
  EXPECT_EQ(k.stats().epoll_sleeps, 1u);
}

TEST(KernelEdge, VbWakeDuringCheckQuantum) {
  // All threads on one core VB-park; the waker (external timer via a second
  // core) clears a flag while the parked thread is mid check-quantum.
  KernelConfig c;
  c.topo = hw::Topology::make_cores(2, 1);
  c.features = core::Features::optimized();
  c.features.vb_auto_disable = false;  // force VB even for single waiters
  Kernel k(c);
  kern::SimWord* w = k.alloc_word(0);
  SimTime woke = -1;
  runtime::spawn(k, "waiter", [&, w](Env env) -> SimThread {
    co_await env.futex_wait(w, 0);
    woke = env.now();
    co_return;
  });
  runtime::spawn(k, "waker", [w](Env env) -> SimThread {
    co_await env.compute(2_ms);
    co_await env.store(w, 1);
    co_await env.futex_wake(w, 1);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(5_s));
  EXPECT_GE(woke, 2_ms);
  EXPECT_LE(woke, 2_ms + 200_us);
  EXPECT_GE(k.stats().vb_parks, 1u);
}

TEST(KernelEdge, ExitWhileOthersBlockedDoesNotHang) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(1, 1);
  Kernel k(c);
  kern::SimWord* w = k.alloc_word(0);
  runtime::spawn(k, "blocked-forever", [w](Env env) -> SimThread {
    co_await env.futex_wait(w, 0);
    co_return;
  });
  runtime::spawn(k, "worker", [w](Env env) -> SimThread {
    co_await env.compute(1_ms);
    co_await env.store(w, 1);
    co_await env.futex_wake(w, 1);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(2_s));
}

TEST(KernelEdge, ZeroWakeOnEmptyAndMismatchedWord) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(1, 1);
  Kernel k(c);
  kern::SimWord* a = k.alloc_word(0);
  kern::SimWord* b = k.alloc_word(0);
  std::uint64_t woken_b = 99;
  runtime::spawn(k, "waiter-a", [a](Env env) -> SimThread {
    co_await env.futex_wait(a, 0);
    co_return;
  });
  runtime::spawn(k, "waker-b", [&, a, b](Env env) -> SimThread {
    co_await env.compute(1_ms);
    woken_b = co_await env.futex_wake(b, 10);  // nobody waits on b
    co_await env.store(a, 1);
    co_await env.futex_wake(a, 1);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(2_s));
  EXPECT_EQ(woken_b, 0u) << "wake must match the futex word, not the bucket";
}

TEST(KernelEdge, VbFutexCountsOnlySameWordWaiters) {
  // VB's auto-disable counts the waiters on the caller's futex word, not on
  // its bucket: a waiter on another word that hashes to the same bucket must
  // not tip a lone waiter into VB, and woken waiters must stop counting.
  KernelConfig c;
  c.topo = hw::Topology::make_cores(2, 1);
  c.features.vb_futex = true;  // auto-disable on: VB once waiters >= cores
  Kernel k(c);
  // A word's bucket depends only on its id and the bucket count, and the
  // kernel's table has the default count, so a default table finds a pair.
  futex::FutexTable probe;
  kern::SimWord* a = k.alloc_word(0);
  kern::SimWord* b = nullptr;
  for (int i = 0; i < 4096 && b == nullptr; ++i) {
    kern::SimWord* w = k.alloc_word(0);
    if (&probe.bucket_for(w) == &probe.bucket_for(a)) b = w;
  }
  ASSERT_NE(b, nullptr);
  runtime::spawn(k, "b-waiter", [b](Env env) -> SimThread {
    co_await env.futex_wait(b, 0);  // alone on b: vanilla
    co_return;
  });
  runtime::spawn(k, "a-first", [a](Env env) -> SimThread {
    co_await env.compute(100_us);
    co_await env.futex_wait(a, 0);  // first on a (b's waiter shares the
    co_return;                      // bucket but not the word): vanilla
  });
  runtime::spawn(k, "a-second", [a](Env env) -> SimThread {
    co_await env.compute(500_us);
    co_await env.futex_wait(a, 0);  // second on a: 2 waiters >= 2 cores, VB
    co_return;
  });
  runtime::spawn(k, "a-late", [a](Env env) -> SimThread {
    co_await env.compute(20_ms);
    co_await env.futex_wait(a, 1);  // a's earlier waiters are gone: vanilla
    co_return;
  });
  std::uint64_t woken_a = 0, woken_b = 0, woken_late = 0;
  runtime::spawn(k, "waker", [&, a, b](Env env) -> SimThread {
    co_await env.compute(2_ms);
    co_await env.store(a, 1);
    woken_a = co_await env.futex_wake(a, 10);
    co_await env.store(b, 1);
    woken_b = co_await env.futex_wake(b, 10);
    co_await env.compute(40_ms);
    woken_late = co_await env.futex_wake(a, 10);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(5_s));
  EXPECT_EQ(woken_a, 2u);
  EXPECT_EQ(woken_b, 1u);
  EXPECT_EQ(woken_late, 1u);
  EXPECT_EQ(k.stats().vb_parks, 1u);
  EXPECT_EQ(k.stats().futex_sleeps, 3u);
}

TEST(KernelEdge, TaskStatsAccumulate) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(1, 1);
  Kernel k(c);
  runtime::spawn(k, "a", [](Env env) -> SimThread {
    for (int i = 0; i < 10; ++i) {
      co_await env.compute(500_us);
      co_await env.yield();
    }
    co_return;
  });
  runtime::spawn(k, "b", [](Env env) -> SimThread {
    co_await env.compute(5_ms);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(2_s));
  const auto& a = *k.tasks()[0];
  EXPECT_NEAR(static_cast<double>(a.stats.cpu_time), 5e6, 5e5);
  EXPECT_GE(a.stats.voluntary_switches, 10u);
}

TEST(KernelDeathTest, RejectsHostileInstrProfile) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf, -1.0}) {
    for (double hw::InstrProfile::*rate :
         {&hw::InstrProfile::instr_per_us, &hw::InstrProfile::l1_miss_per_instr,
          &hw::InstrProfile::tlb_miss_per_instr,
          &hw::InstrProfile::spin_stray_miss_prob}) {
      KernelConfig c;
      c.instr.*rate = bad;
      EXPECT_DEATH(Kernel k(c), "rates must be finite and non-negative");
    }
  }
  for (const double bad : {0.0, -4.0, nan, inf}) {
    KernelConfig c;
    c.instr.spin_iteration_ns = bad;
    EXPECT_DEATH(Kernel k(c), "spin_iteration_ns must be finite and positive");
  }
}

}  // namespace
}  // namespace eo
