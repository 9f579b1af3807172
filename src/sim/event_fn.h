// EventFn: the engine's callback type — a move-only `void()` callable with
// small-buffer inline storage.
//
// The discrete-event hot loop stores, moves, and invokes one callback per
// event; `std::function` there meant a possible heap allocation per schedule
// and a type-erased manager call per move. EventFn is sized for the kernel's
// actual captures (a `this` pointer plus one or two words: `[this, &c]`,
// `[this, t, w]`, `[this, chain]`) and follows the same cure applied to spin
// predicates (`kern::SpinPredicate`): the common case is a flat value.
//
//  * Callables with `sizeof <= kInlineSize` (3 pointers), pointer alignment,
//    and a noexcept move constructor are stored inline — scheduling them
//    never allocates. Trivially-copyable ones (every capture-of-pointers
//    lambda, plain function pointers, capture-free lambdas) additionally
//    move by memcpy with no per-type code at all.
//  * Larger or over-aligned callables fall back to one heap allocation, so
//    the type stays a drop-in replacement for `std::function<void()>`.
//
// The inline-size contract is part of the engine's performance surface:
// `tests/sim_event_fn_test.cc` asserts both the no-allocation guarantee and
// the exact capacity, so growing a kernel lambda past three words is a
// deliberate, test-visible decision.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace eo::sim {

class EventFn {
 public:
  /// Inline capture capacity, in bytes (three pointers' worth).
  static constexpr std::size_t kInlineSize = 3 * sizeof(void*);

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                     std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    construct<D>(std::forward<F>(f));
  }

  EventFn(EventFn&& o) noexcept { move_from(o); }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  /// Replaces the held callable with `f`, built directly in this object: a
  /// callable is constructed in place (no temporary EventFn to relocate),
  /// and an EventFn argument is relocated exactly once.
  template <class F>
  void assign(F&& f) {
    using D = std::decay_t<F>;
    reset();
    if constexpr (std::is_same_v<D, EventFn>) {
      static_assert(!std::is_lvalue_reference_v<F>, "EventFn is move-only");
      move_from(f);
    } else {
      construct<D>(std::forward<F>(f));
    }
  }

  /// Invokes the callable. Precondition: non-empty.
  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Destroys the held callable (no-op when empty).
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// True when the callable lives in the inline buffer (test introspection).
  bool is_inline() const noexcept { return ops_ != nullptr && !ops_->heap; }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs into `dst` and destroys `src`. Null means the bytes
    /// are trivially relocatable: moving is a memcpy of the inline buffer
    /// (also correct for the heap case, which relocates its pointer).
    void (*relocate)(void* dst, void* src) noexcept;
    /// Null means trivially destructible (nothing owned).
    void (*destroy)(void* storage) noexcept;
    bool heap;
  };

  template <class D>
  struct InlineOps {
    static D* obj(void* s) { return std::launder(reinterpret_cast<D*>(s)); }
    static void invoke(void* s) { (*obj(s))(); }
    static void relocate(void* dst, void* src) noexcept {
      D* from = obj(src);
      ::new (dst) D(std::move(*from));
      from->~D();
    }
    static void destroy(void* s) noexcept { obj(s)->~D(); }
    static constexpr Ops kTrivial{&invoke, nullptr, nullptr, false};
    static constexpr Ops kOps{&invoke, &relocate, &destroy, false};
  };

  template <class D>
  struct HeapOps {
    static D* obj(void* s) {
      return *std::launder(reinterpret_cast<D**>(s));
    }
    static void invoke(void* s) { (*obj(s))(); }
    static void destroy(void* s) noexcept { delete obj(s); }
    // relocate is null: moving a heap callable memcpys its pointer.
    static constexpr Ops kOps{&invoke, nullptr, &destroy, true};
  };

  void*& ptr_slot() { return *reinterpret_cast<void**>(storage_); }

  /// Builds `f` into this (empty) object: inline when it fits, else boxed.
  template <class D, class F>
  void construct(F&& f) {
    static_assert(std::is_invocable_r_v<void, D&>, "EventFn needs a void()");
    if constexpr (sizeof(D) <= kInlineSize &&
                  alignof(D) <= alignof(void*) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      if constexpr (std::is_trivially_copyable_v<D> &&
                    std::is_trivially_destructible_v<D>) {
        ops_ = &InlineOps<D>::kTrivial;
      } else {
        ops_ = &InlineOps<D>::kOps;
      }
    } else {
      ptr_slot() = new D(std::forward<F>(f));
      ops_ = &HeapOps<D>::kOps;
    }
  }

  void move_from(EventFn& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(storage_, o.storage_);
      } else {
        std::memcpy(storage_, o.storage_, kInlineSize);
      }
      o.ops_ = nullptr;
    }
  }

  alignas(void*) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(EventFn) == 4 * sizeof(void*),
              "EventFn must stay four words: inline buffer + ops pointer");

}  // namespace eo::sim
