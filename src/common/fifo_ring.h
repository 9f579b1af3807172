// Growable FIFO ring buffer.
//
// `std::deque` allocates and frees a block roughly every 64 elements when a
// queue oscillates across a block boundary, which puts heap traffic on paths
// that are otherwise allocation-free (the epoll ready queue, for one, sits on
// the request path of every open-loop serving scenario). `FifoRing` stores
// elements in one power-of-two circular buffer that only ever grows: once a
// queue has seen its peak depth, push/pop are plain stores with no heap
// activity — the same "warm up, then zero steady-state allocation" contract
// as the event engine's slot slab.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace eo {

template <typename T>
class FifoRing {
 public:
  FifoRing() = default;

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  /// Slots allocated; never shrinks.
  std::size_t capacity() const { return buf_.size(); }

  /// Pre-sizes the buffer (rounded up to a power of two).
  void reserve(std::size_t n) {
    if (n > buf_.size()) grow(round_up(n));
  }

  void push_back(T v) {
    if (count_ == buf_.size()) grow(buf_.size() == 0 ? 8 : buf_.size() * 2);
    buf_[wrap(head_ + count_)] = std::move(v);
    ++count_;
  }

  T& front() {
    EO_CHECK(count_ > 0);
    return buf_[head_];
  }
  const T& front() const {
    EO_CHECK(count_ > 0);
    return buf_[head_];
  }

  void pop_front() {
    EO_CHECK(count_ > 0);
    buf_[head_] = T{};  // drop payload references eagerly
    head_ = wrap(head_ + 1);
    --count_;
  }

  /// FIFO-indexed access: at(0) is the front.
  T& at(std::size_t i) {
    EO_CHECK(i < count_);
    return buf_[wrap(head_ + i)];
  }
  const T& at(std::size_t i) const {
    EO_CHECK(i < count_);
    return buf_[wrap(head_ + i)];
  }

  void clear() {
    for (std::size_t i = 0; i < count_; ++i) at(i) = T{};
    head_ = 0;
    count_ = 0;
  }

 private:
  static std::size_t round_up(std::size_t n) {
    std::size_t p = 8;
    while (p < n) p *= 2;
    return p;
  }

  std::size_t wrap(std::size_t i) const { return i & (buf_.size() - 1); }

  void grow(std::size_t new_cap) {
    std::vector<T> next(new_cap);
    for (std::size_t i = 0; i < count_; ++i) next[i] = std::move(at(i));
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace eo
