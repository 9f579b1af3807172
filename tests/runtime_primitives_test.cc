// Tests for the futex-based synchronization primitives (mutex, barrier,
// condition variable, semaphore), the user-level spin helpers, and the pool
// their coroutine frames come from.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "kern/kernel.h"
#include "runtime/barrier.h"
#include "runtime/condvar.h"
#include "runtime/frame_pool.h"
#include "runtime/mutex.h"
#include "runtime/semaphore.h"
#include "runtime/sim_thread.h"
#include "runtime/spin.h"

namespace eo {
namespace {

using kern::Kernel;
using kern::KernelConfig;
using runtime::Env;
using runtime::SimThread;

KernelConfig cores(int n) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(n, 1);
  return c;
}

TEST(Mutex, MutualExclusionManyThreads) {
  Kernel k(cores(4));
  auto m = std::make_shared<runtime::SimMutex>(k);
  auto in_cs = std::make_shared<int>(0);
  auto max_in_cs = std::make_shared<int>(0);
  auto total = std::make_shared<int>(0);
  for (int i = 0; i < 16; ++i) {
    runtime::spawn(k, "m" + std::to_string(i),
                   [m, in_cs, max_in_cs, total](Env env) -> SimThread {
                     for (int r = 0; r < 20; ++r) {
                       co_await m->lock(env);
                       ++*in_cs;
                       *max_in_cs = std::max(*max_in_cs, *in_cs);
                       co_await env.compute(5_us);
                       --*in_cs;
                       ++*total;
                       co_await m->unlock(env);
                       co_await env.compute(10_us);
                     }
                     co_return;
                   });
  }
  ASSERT_TRUE(k.run_to_exit(10_s));
  EXPECT_EQ(*max_in_cs, 1) << "mutual exclusion violated";
  EXPECT_EQ(*total, 16 * 20);
}

TEST(Mutex, TryLock) {
  Kernel k(cores(1));
  auto m = std::make_shared<runtime::SimMutex>(k);
  std::vector<bool> results;
  runtime::spawn(k, "t", [m, &results](Env env) -> SimThread {
    results.push_back(co_await m->try_lock(env));  // true
    results.push_back(co_await m->try_lock(env));  // false (held)
    co_await m->unlock(env);
    results.push_back(co_await m->try_lock(env));  // true again
    co_await m->unlock(env);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(1_s));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0]);
  EXPECT_FALSE(results[1]);
  EXPECT_TRUE(results[2]);
}

TEST(Barrier, AllArriveBeforeAnyProceeds) {
  Kernel k(cores(4));
  const int n = 12;
  auto b = std::make_shared<runtime::SimBarrier>(k, n);
  auto arrived = std::make_shared<int>(0);
  auto violations = std::make_shared<int>(0);
  for (int i = 0; i < n; ++i) {
    runtime::spawn(k, "b" + std::to_string(i),
                   [b, arrived, violations, i, n](Env env) -> SimThread {
                     for (int r = 0; r < 10; ++r) {
                       co_await env.compute((i + 1) * 50_us);
                       ++*arrived;
                       co_await b->wait(env);
                       // After the barrier, everyone from this round arrived.
                       if (*arrived < n * (r + 1)) ++*violations;
                     }
                     co_return;
                   });
  }
  ASSERT_TRUE(k.run_to_exit(30_s));
  EXPECT_EQ(*violations, 0);
  EXPECT_EQ(*arrived, n * 10);
}

TEST(Barrier, ReusableAcrossGenerations) {
  Kernel k(cores(2));
  auto b = std::make_shared<runtime::SimBarrier>(k, 2);
  auto rounds_done = std::make_shared<int>(0);
  for (int i = 0; i < 2; ++i) {
    runtime::spawn(k, "g" + std::to_string(i),
                   [b, rounds_done](Env env) -> SimThread {
                     for (int r = 0; r < 100; ++r) {
                       co_await b->wait(env);
                       ++*rounds_done;
                     }
                     co_return;
                   });
  }
  ASSERT_TRUE(k.run_to_exit(10_s));
  EXPECT_EQ(*rounds_done, 200);
}

TEST(CondVar, BroadcastWakesAllWaiters) {
  Kernel k(cores(2));
  auto m = std::make_shared<runtime::SimMutex>(k);
  auto cv = std::make_shared<runtime::SimCond>(k);
  auto ready = std::make_shared<bool>(false);
  auto woken = std::make_shared<int>(0);
  for (int i = 0; i < 8; ++i) {
    runtime::spawn(k, "w" + std::to_string(i),
                   [m, cv, ready, woken](Env env) -> SimThread {
                     co_await m->lock(env);
                     while (!*ready) co_await cv->wait(env, *m);
                     ++*woken;
                     co_await m->unlock(env);
                     co_return;
                   });
  }
  runtime::spawn(k, "signaler", [m, cv, ready](Env env) -> SimThread {
    co_await env.compute(5_ms);
    co_await m->lock(env);
    *ready = true;
    co_await cv->broadcast(env);
    co_await m->unlock(env);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(10_s));
  EXPECT_EQ(*woken, 8);
}

TEST(CondVar, SignalWakesAtLeastOne) {
  Kernel k(cores(2));
  auto m = std::make_shared<runtime::SimMutex>(k);
  auto cv = std::make_shared<runtime::SimCond>(k);
  auto tokens = std::make_shared<int>(0);
  auto consumed = std::make_shared<int>(0);
  for (int i = 0; i < 4; ++i) {
    runtime::spawn(k, "c" + std::to_string(i),
                   [m, cv, tokens, consumed](Env env) -> SimThread {
                     for (int r = 0; r < 5; ++r) {
                       co_await m->lock(env);
                       while (*tokens == 0) co_await cv->wait(env, *m);
                       --*tokens;
                       ++*consumed;
                       co_await m->unlock(env);
                     }
                     co_return;
                   });
  }
  runtime::spawn(k, "p", [m, cv, tokens](Env env) -> SimThread {
    for (int r = 0; r < 20; ++r) {
      co_await env.compute(100_us);
      co_await m->lock(env);
      ++*tokens;
      co_await cv->signal(env);
      co_await m->unlock(env);
    }
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(30_s));
  EXPECT_EQ(*consumed, 20);
}

TEST(Semaphore, CountingSemantics) {
  Kernel k(cores(4));
  auto sem = std::make_shared<runtime::SimSemaphore>(k, 2);
  auto inside = std::make_shared<int>(0);
  auto max_inside = std::make_shared<int>(0);
  for (int i = 0; i < 10; ++i) {
    runtime::spawn(k, "s" + std::to_string(i),
                   [sem, inside, max_inside](Env env) -> SimThread {
                     for (int r = 0; r < 5; ++r) {
                       co_await sem->wait(env);
                       ++*inside;
                       *max_inside = std::max(*max_inside, *inside);
                       co_await env.compute(20_us);
                       --*inside;
                       co_await sem->post(env);
                     }
                     co_return;
                   });
  }
  ASSERT_TRUE(k.run_to_exit(30_s));
  EXPECT_LE(*max_inside, 2);
  EXPECT_GE(*max_inside, 1);
}

TEST(SpinFlag, HandoffWorks) {
  Kernel k(cores(2));
  auto f = std::make_shared<runtime::SpinFlag>(k);
  SimTime waiter_done = -1;
  runtime::spawn(k, "w", [f, &waiter_done](Env env) -> SimThread {
    co_await f->wait_for(env, 3);
    waiter_done = env.now();
    co_return;
  });
  runtime::spawn(k, "s", [f](Env env) -> SimThread {
    co_await env.compute(1_ms);
    co_await f->set(env, 3);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(5_s));
  EXPECT_GE(waiter_done, 1_ms);
  EXPECT_LE(waiter_done, 1_ms + 50_us);
}

TEST(SpinBarrier, SynchronizesRounds) {
  Kernel k(cores(4));
  const int n = 4;
  auto b = std::make_shared<runtime::SpinBarrier>(k, n);
  auto counter = std::make_shared<int>(0);
  auto errors = std::make_shared<int>(0);
  for (int i = 0; i < n; ++i) {
    runtime::spawn(k, "sb" + std::to_string(i),
                   [b, counter, errors, i, n](Env env) -> SimThread {
                     for (int r = 0; r < 20; ++r) {
                       co_await env.compute((i + 1) * 20_us);
                       ++*counter;
                       co_await b->wait(env);
                       if (*counter < n * (r + 1)) ++*errors;
                     }
                     co_return;
                   });
  }
  ASSERT_TRUE(k.run_to_exit(10_s));
  EXPECT_EQ(*errors, 0);
  EXPECT_EQ(*counter, n * 20);
}

using runtime::FramePool;

TEST(FramePool, RecyclesWithinASizeClass) {
  // 300 and 260 bytes share the 257..320 class: the second allocation
  // reuses the block the first one freed.
  void* a = FramePool::allocate(300);
  FramePool::deallocate(a, 300);
  void* b = FramePool::allocate(260);
  EXPECT_EQ(b, a);
  // Another class does not see it.
  void* c = FramePool::allocate(100);
  EXPECT_NE(c, a);
  // Beyond the largest class frames go to the heap and back.
  const std::size_t big_bytes =
      FramePool::kClasses * FramePool::kClassBytes + 1;
  void* big = FramePool::allocate(big_bytes);
  FramePool::deallocate(big, big_bytes);
  FramePool::deallocate(c, 100);
  FramePool::deallocate(b, 260);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(FramePool, RecycledFrameIsPoisonedUnderAsan) {
  auto* p = static_cast<char*>(FramePool::allocate(200));
  EXPECT_FALSE(__asan_address_is_poisoned(p + 100));
  FramePool::deallocate(p, 200);
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  EXPECT_TRUE(__asan_address_is_poisoned(p + 255));
  // A use after the frame went back to the pool is still reported.
  EXPECT_DEATH({ static_cast<volatile char*>(p)[100] = 1; },
               "use-after-poison");
  void* again = FramePool::allocate(200);
  EXPECT_EQ(again, p);
  EXPECT_FALSE(__asan_address_is_poisoned(p + 255));
  FramePool::deallocate(again, 200);
}
#endif

}  // namespace
}  // namespace eo
