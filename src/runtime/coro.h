// Coroutine machinery for simulated threads.
//
// A simulated thread's program is a C++20 coroutine of type `SimThread`.
// Library code (locks, barriers) is written as `SimCall<T>` coroutines that
// compose via symmetric transfer, so a workload reads like pthreads code:
//
//   SimThread worker(Env env, Args a) {
//     co_await env.compute(200_us);
//     co_await mutex.lock(env);       // SimCall<void>
//     ...
//   }
//
// Suspension protocol: a leaf awaitable either suspends or runs in place.
//  - ActionAwaiter (compute, spin, futex, epoll, yield, sleep) is for work
//    that lets simulated time pass. It builds an Action on the Task, records
//    the innermost coroutine handle as the resume point and suspends;
//    control unwinds to the kernel, which interprets the action and later
//    resumes the resume point.
//  - InlineAwaiter (atomics, memory-profile switches) is for work that takes
//    no simulated time. Its await_ready runs the action through
//    Kernel::perform_inline and returns true, so the coroutine never
//    suspends and the kernel's resume loop never sees the action.
// SimCall frames chain continuations so completion of a nested call
// transfers straight back to its awaiter. Their frames come from FramePool;
// SimThread frames, one per thread, come from the heap.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <utility>

#include "kern/action.h"
#include "kern/kernel.h"
#include "kern/task.h"
#include "runtime/frame_pool.h"

namespace eo::runtime {

/// Base of the SimCall promise types: their frames come from FramePool.
struct PooledFrame {
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n);
  }
};

/// Top-level coroutine type of a simulated thread.
class SimThread {
 public:
  struct promise_type {
    kern::Task* task = nullptr;

    SimThread get_return_object() {
      return SimThread{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        // Signal thread termination to the kernel; control returns to the
        // kernel's resume loop, which interprets the Exit action.
        h.promise().task->pending = kern::ExitAction{};
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };

  using handle_type = std::coroutine_handle<promise_type>;
  explicit SimThread(handle_type h) : handle(h) {}
  handle_type handle;
};

/// Composable nested coroutine (like cppcoro::task<T>), used for library
/// primitives. Lazily started; completion symmetric-transfers back to the
/// awaiter. The frame is destroyed by await_resume and goes back to
/// FramePool.
template <typename T>
class [[nodiscard]] SimCall {
 public:
  struct promise_type : PooledFrame {
    std::coroutine_handle<> continuation;
    T value{};

    SimCall get_return_object() {
      return SimCall{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_value(T v) { value = std::move(v); }
    void unhandled_exception() { std::terminate(); }
  };

  using handle_type = std::coroutine_handle<promise_type>;

  explicit SimCall(handle_type h) : h_(h) {}
  SimCall(SimCall&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  SimCall(const SimCall&) = delete;
  SimCall& operator=(const SimCall&) = delete;
  ~SimCall() {
    if (h_) h_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    h_.promise().continuation = parent;
    return h_;  // start the child
  }
  T await_resume() {
    T v = std::move(h_.promise().value);
    h_.destroy();
    h_ = nullptr;
    return v;
  }

 private:
  handle_type h_;
};

template <>
class [[nodiscard]] SimCall<void> {
 public:
  struct promise_type : PooledFrame {
    std::coroutine_handle<> continuation;

    SimCall get_return_object() {
      return SimCall{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };

  using handle_type = std::coroutine_handle<promise_type>;

  explicit SimCall(handle_type h) : h_(h) {}
  SimCall(SimCall&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  SimCall(const SimCall&) = delete;
  SimCall& operator=(const SimCall&) = delete;
  ~SimCall() {
    if (h_) h_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    h_.promise().continuation = parent;
    return h_;
  }
  void await_resume() {
    h_.destroy();
    h_ = nullptr;
  }

 private:
  handle_type h_;
};

/// Leaf awaitable for work that lets simulated time pass: hands one Action to
/// the kernel, suspends, and resumes with its 64-bit result. The action is
/// built straight into `Task::pending` when the awaiter is made (it is
/// awaited at once, and the kernel reads `pending` only after the suspend):
/// copying a just-built variant out of the awaiter stalled on store
/// forwarding.
class ActionAwaiter {
 public:
  template <typename A, typename... Args>
  ActionAwaiter(kern::Task* t, std::in_place_type_t<A>, Args... args)
      : t_(t) {
    t->pending.emplace<A>(args...);
  }

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { t_->resume_point = h; }
  std::uint64_t await_resume() const noexcept { return t_->action_result; }

 private:
  kern::Task* t_;
};

/// Leaf awaitable for work that takes no simulated time: runs the action in
/// await_ready and never suspends. Its result is the action's 64-bit result.
class InlineAwaiter {
 public:
  InlineAwaiter(kern::Kernel* k, kern::Task* t, kern::InlineAction action)
      : k_(k), t_(t), action_(action) {}

  bool await_ready() {
    k_->perform_inline(t_, action_);
    return true;
  }
  /// Never called: await_ready always returns true.
  void await_suspend(std::coroutine_handle<>) noexcept {}
  std::uint64_t await_resume() const noexcept { return t_->action_result; }

 private:
  kern::Kernel* k_;
  kern::Task* t_;
  kern::InlineAction action_;
};

}  // namespace eo::runtime
