// FramePool: recycles the coroutine frames of library calls.
//
// Every lock, barrier, spin flag and chunked-compute call is a SimCall
// coroutine whose frame (a few hundred bytes) lives only for that call, so
// allocating each frame from the heap put malloc/free on the simulator's
// hottest path. The pool keeps one free list per 64-byte size class per host
// thread: in the steady state an allocation and a free are two pointer moves
// each. Blocks stay on their lists while the thread lives and are freed when
// it exits; a frame freed on a thread other than the one that allocated it
// joins the freeing thread's list. Frames larger than the biggest class go
// straight to the heap.
//
// In AddressSanitizer builds a block is poisoned while it sits on a free
// list, so touching a recycled frame after its coroutine was destroyed is
// still reported.
#pragma once

#include <cstddef>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define EO_FRAME_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define EO_FRAME_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define EO_FRAME_POISON(p, n) ((void)(p), (void)(n))
#define EO_FRAME_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace eo::runtime {

class FramePool {
 public:
  static constexpr std::size_t kClassBytes = 64;
  /// Classes cover frames of 1..1024 bytes.
  static constexpr std::size_t kClasses = 16;

  static void* allocate(std::size_t n) {
    const std::size_t c = size_class(n);
    if (c >= kClasses) return ::operator new(n);
    Block* b = t_lists.head[c];
    if (b == nullptr) return grow(c);
    EO_FRAME_UNPOISON(b, class_bytes(c));
    t_lists.head[c] = b->next;
    return b;
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    const std::size_t c = size_class(n);
    if (c >= kClasses) {
      ::operator delete(p);
      return;
    }
    if (!t_lists.armed) arm();
    t_lists.head[c] = ::new (p) Block{t_lists.head[c]};
    EO_FRAME_POISON(p, class_bytes(c));
  }

 private:
  struct Block {
    Block* next;
  };
  /// Trivially constructed and destroyed, so the hot path reads it with no
  /// thread-local init guard; Releaser frees its blocks at thread exit.
  struct Lists {
    Block* head[kClasses];
    bool armed;
  };
  struct Releaser {
    ~Releaser() {
      for (std::size_t c = 0; c < kClasses; ++c) {
        while (Block* b = t_lists.head[c]) {
          EO_FRAME_UNPOISON(b, class_bytes(c));
          t_lists.head[c] = b->next;
          ::operator delete(b);
        }
      }
    }
  };

  static constexpr std::size_t size_class(std::size_t n) {
    return (n - 1) / kClassBytes;
  }
  static constexpr std::size_t class_bytes(std::size_t c) {
    return (c + 1) * kClassBytes;
  }

  /// Registers this thread's Releaser (once; a block-scope thread_local is
  /// constructed the first time control reaches it).
  [[gnu::noinline]] static void arm() {
    static thread_local Releaser releaser;
    (void)releaser;
    t_lists.armed = true;
  }
  [[gnu::noinline]] static void* grow(std::size_t c) {
    if (!t_lists.armed) arm();
    return ::operator new(class_bytes(c));
  }

  static inline constinit thread_local Lists t_lists{};
};

}  // namespace eo::runtime
