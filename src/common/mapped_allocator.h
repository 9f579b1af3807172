// Allocator for large reservations that are written sparsely.
//
// A buffer reserved for the worst case but filled on demand stays small
// only if its unwritten pages stay unwritten. A large malloc block need
// not: once glibc has raised its mmap threshold it comes from the brk
// heap, often from a hole earlier blocks already made resident, so peak
// RSS follows the heap's history. Blocks of `kMapBytes` or more are
// therefore mapped straight from the kernel (zero-fill on demand) and
// unmapped on release; smaller ones come from `operator new`.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <new>

namespace eo {

template <typename T>
struct MappedAllocator {
  using value_type = T;
  static constexpr std::size_t kMapBytes = std::size_t{64} << 10;

  MappedAllocator() = default;
  template <typename U>
  MappedAllocator(const MappedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kMapBytes) return static_cast<T*>(::operator new(bytes));
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kMapBytes) {
      ::operator delete(p, bytes);
    } else {
      ::munmap(p, bytes);
    }
  }

  template <typename U>
  bool operator==(const MappedAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace eo
