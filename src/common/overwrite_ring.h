// Fixed-capacity overwrite-oldest ring, filled on demand.
//
// The tracer's per-core rings and the sampler's series are sized for the
// longest run but usually hold a few dozen frames. The ring reserves its
// storage once (mapped, see mapped_allocator.h), appends until full, then
// overwrites the oldest frame: pages a run never writes never become
// resident, and no push allocates. A frame is `stride` consecutive
// elements pushed together (one `CoreSample` per core per tick).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/mapped_allocator.h"

namespace eo {

template <typename T>
class OverwriteRing {
 public:
  /// An empty ring: capacity 0, accepts no frames.
  OverwriteRing() = default;
  /// Room for `capacity` frames of `stride` elements each. Reserves the
  /// storage without writing it.
  explicit OverwriteRing(std::size_t capacity, std::size_t stride = 1)
      : capacity_(capacity), stride_(stride) {
    EO_CHECK_GT(capacity, 0u);
    EO_CHECK_GT(stride, 0u);
    buf_.reserve(capacity * stride);
  }

  /// Pushes one frame of `stride` elements, overwriting the oldest frame
  /// when the ring is full.
  void push(const T* frame) {
    if (count_ < capacity_) {
      buf_.insert(buf_.end(), frame, frame + stride_);
      ++count_;
      return;
    }
    std::copy_n(frame, stride_, buf_.begin() + head_ * stride_);
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    ++dropped_;
  }
  void push(const T& v) { push(&v); }

  std::size_t capacity() const { return capacity_; }
  /// Frames currently retained (<= capacity).
  std::size_t size() const { return count_; }
  /// Frames overwritten because the ring was full.
  std::uint64_t dropped() const { return dropped_; }

  /// Appends the retained frames' elements to `out`, oldest frame first.
  void copy_ordered(std::vector<T>* out) const {
    const auto oldest = buf_.begin() + head_ * stride_;
    out->insert(out->end(), oldest, buf_.end());
    out->insert(out->end(), buf_.begin(), oldest);
  }

  /// Forgets every frame; the storage stays reserved.
  void clear() {
    buf_.clear();
    head_ = 0;
    count_ = 0;
    dropped_ = 0;
  }

 private:
  std::size_t capacity_ = 0;
  std::size_t stride_ = 1;
  /// Written frames, `count_ * stride_` elements. Until the ring is full
  /// they are in push order; after that `head_` is the oldest frame.
  std::vector<T, MappedAllocator<T>> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace eo
