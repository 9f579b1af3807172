// Allocation-counting harness for the allocation-contract tests.
//
// Linking alloc_count.cc into a test binary replaces the global operator
// new/delete for the whole binary: every operator new bumps one process-wide
// counter and allocates with malloc. The operators live in their own
// translation unit, so the compiler never sees an inlined `std::free` next
// to the replaced `operator new` (which GCC reports as
// -Wmismatched-new-delete).
#pragma once

#include <cstdint>

namespace eo {

/// operator new calls made by the process so far.
std::uint64_t allocations();

/// Allocations performed by `body`.
template <typename Body>
std::uint64_t allocs_during(Body&& body) {
  const std::uint64_t before = allocations();
  body();
  return allocations() - before;
}

}  // namespace eo
