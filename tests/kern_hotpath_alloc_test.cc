// Allocation contract for the kernel's hottest paths: once a kernel is warm
// (engine slab, wake-chain pool, runqueue storage at steady-state
// footprint), a context switch, a futex or epoll wait/wake round trip, an
// obs sampler tick and a library call (mutex, barriers, spin flag) must not
// touch the heap. Futex and epoll waiters ride intrusive WaiterLinks
// embedded in Task, wake chains are pooled and spliced, engine callbacks are
// inline EventFns, sampler frames go into preallocated ring storage, and
// SimCall frames are recycled by FramePool — so the steady state is pointer
// work only. Same
// global-new harness as sim_event_fn_test.cc / traffic_fleet_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/units.h"
#include "kern/kernel.h"
#include "metrics/experiment.h"
#include "runtime/barrier.h"
#include "runtime/mutex.h"
#include "runtime/sim_thread.h"
#include "runtime/spin.h"
#include "workloads/suite.h"

// --- allocation-counting harness (whole test binary) ---
namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace eo::kern {
namespace {

/// Allocations performed by `body`.
template <typename Body>
std::uint64_t allocs_during(Body&& body) {
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  body();
  return g_news.load(std::memory_order_relaxed) - before;
}

TEST(KernHotPath, ContextSwitchesAllocationFreeWhenWarm) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(1, 1);
  Kernel k(c);
  // Four oversubscribed compute+yield threads on one core: every yield is a
  // real context switch through deschedule/pick/begin.
  for (int i = 0; i < 4; ++i) {
    runtime::spawn(k, "t", [](runtime::Env env) -> runtime::SimThread {
      for (int r = 0; r < 2000; ++r) {
        co_await env.compute(10_us);
        co_await env.yield();
      }
      co_return;
    });
  }
  k.run_until(5_ms);  // warm: engine slab, runqueue storage, timer events
  const std::uint64_t n = allocs_during([&] { k.run_until(60_ms); });
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(k.run_to_exit(k.now() + 10_s));
  EXPECT_GT(k.stats().context_switches, 1000u);
}

TEST(KernHotPath, FutexRoundTripAllocationFreeWhenWarm) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(2, 1);
  Kernel k(c);
  SimWord* w = k.alloc_word(0);
  // Ping-pong: the waiter truly blocks (value reset to 0 after each round),
  // so every iteration exercises bucket enqueue, wake-chain splice, the
  // serialized wake steps, and both sides' context switches.
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
  k.run_until(2_ms);  // warm: one pooled wake chain, engine heap at depth
  const std::uint64_t n = allocs_during([&] { k.run_until(14_ms); });
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(k.run_to_exit(k.now() + 10_s));
  EXPECT_GT(k.stats().futex_wakes, 1000u);
}

TEST(KernHotPath, EpollRoundTripAllocationFreeWhenWarm) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(2, 1);
  Kernel k(c);
  const int ep = k.epoll_create();
  // Ping-pong through one instance: the consumer blocks in epoll_wait before
  // each post, so every round queues its embedded link on the instance, pops
  // it with the payload onto a pooled wake chain, and switches both sides.
  runtime::spawn(k, "consumer", [ep](runtime::Env env) -> runtime::SimThread {
    for (int r = 0; r < 3000; ++r) co_await env.epoll_wait(ep);
    co_return;
  });
  runtime::spawn(k, "producer", [ep](runtime::Env env) -> runtime::SimThread {
    for (int r = 0; r < 3000; ++r) {
      co_await env.compute(5_us);
      co_await env.epoll_post(ep, static_cast<std::uint64_t>(r));
    }
    co_return;
  });
  k.run_until(2_ms);  // warm: one pooled wake chain, engine heap at depth
  const std::uint64_t n = allocs_during([&] { k.run_until(14_ms); });
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(k.run_to_exit(k.now() + 10_s));
  EXPECT_GT(k.stats().epoll_sleeps, 1000u);
}

TEST(KernHotPath, SamplerTickAllocationFreeWhenWarm) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(4, 1);
  c.metrics.enabled = true;
  c.metrics.interval = 10_us;
  Kernel k(c);
  // Eight compute+yield threads on four cores keep every core's sampled
  // state changing, so each tick collects, pushes a frame and re-checks the
  // changed cores through the watchdog.
  for (int i = 0; i < 8; ++i) {
    runtime::spawn(k, "t", [](runtime::Env env) -> runtime::SimThread {
      for (int r = 0; r < 4000; ++r) {
        co_await env.compute(20_us);
        co_await env.yield();
      }
      co_return;
    });
  }
  k.run_until(5_ms);  // warm: ring storage, scratch frames, engine heap
  const std::uint64_t ticks_before = k.sampler().ticks();
  const std::uint64_t n = allocs_during([&] { k.run_until(60_ms); });
  EXPECT_EQ(n, 0u);
  EXPECT_GT(k.sampler().ticks() - ticks_before, 5000u);
  // The window is longer than the default ring, so the overwrite-oldest
  // path ran inside it too.
  EXPECT_GT(k.sampler().series().dropped(), 0u);
  EXPECT_TRUE(k.run_to_exit(k.now() + 10_s));
}

TEST(KernHotPath, LibraryCallsAllocationFreeWhenWarm) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(2, 1);
  Kernel k(c);
  runtime::SimMutex mutex(k);
  runtime::SimBarrier barrier(k, 2);
  runtime::SpinBarrier spin_barrier(k, 2);
  runtime::SpinFlag ping(k);
  runtime::SpinFlag pong(k);
  std::uint64_t try_locks_won = 0;
  // Two threads, one per core, each round: mutex lock/unlock/try_lock, both
  // barriers, then a SpinFlag handoff. The setter computes first, so the
  // other side is already spinning on its core when the store lands and
  // the store releases a running spinner.
  for (int me = 0; me < 2; ++me) {
    runtime::SpawnOpts opts;
    opts.pin_cpu = me;
    runtime::spawn(
        k, "t",
        [&, me](runtime::Env env) -> runtime::SimThread {
          runtime::SpinFlag& mine = me == 0 ? ping : pong;
          runtime::SpinFlag& theirs = me == 0 ? pong : ping;
          for (std::uint64_t r = 1; r <= 3000; ++r) {
            co_await mutex.lock(env);
            co_await env.compute(1_us);
            co_await mutex.unlock(env);
            const bool won = co_await mutex.try_lock(env);
            if (won) {
              ++try_locks_won;
              co_await mutex.unlock(env);
            }
            co_await barrier.wait(env);
            co_await spin_barrier.wait(env);
            if (me == 0) {
              co_await env.compute(2_us);
              co_await mine.set(env, r);
              co_await theirs.wait_for(env, r);
            } else {
              co_await theirs.wait_for(env, r);
              co_await env.compute(2_us);
              co_await mine.set(env, r);
            }
          }
          co_return;
        },
        opts);
  }
  k.run_until(5_ms);  // warm: frame pool, spinner lists, engine heap at depth
  const SimDuration spin_busy_before = k.total_spin_busy();
  const std::uint64_t n = allocs_during([&] { k.run_until(30_ms); });
  EXPECT_EQ(n, 0u);
  // The window really ran the handoffs and the lock paths.
  EXPECT_GT(k.total_spin_busy() - spin_busy_before, 1_ms);
  EXPECT_GT(try_locks_won, 500u);
  EXPECT_TRUE(k.run_to_exit(k.now() + 10_s));
}

// Construction, not a hot path: a kernel shaped like fig09's (8 cores on 2
// sockets, VB+BWD, "cg"'s reference footprint) registers ~60 metrics, and the
// registry keeps their names by view, so building the kernel allocates only
// its own structures. Pinned at the observed count; a change that adds
// allocations prints the new count.
TEST(KernHotPath, Fig09KernelConstructionAllocations) {
  constexpr std::uint64_t kPinned = 46;
  metrics::RunConfig rc;
  rc.cpus = 8;
  rc.sockets = 2;
  rc.features = core::Features::optimized();
  rc.ref_footprint = workloads::find_benchmark("cg").ref_footprint();
  const KernelConfig c = metrics::make_kernel_config(rc);
  const std::uint64_t n = allocs_during([&] { Kernel k(c); });
  EXPECT_LE(n, kPinned) << "observed " << n << " allocations";
}

}  // namespace
}  // namespace eo::kern
