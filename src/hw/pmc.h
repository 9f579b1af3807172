// Performance-monitoring-counter window accumulator.
//
// BWD configures two PMCs per core — L1D misses and dTLB misses — and reads
// and clears them every monitoring interval. This class is that pair of
// counters plus the retired-instruction count used by tests and the timer
// overhead accounting. The instruction stream model reports miss presence
// per segment, so the miss totals count the window's segments that missed;
// BWD reads them only as zero or nonzero.
#pragma once

#include <cstdint>

#include "hw/instr_stream.h"

namespace eo::hw {

class Pmc {
 public:
  void accumulate(const PmcSample& s) {
    instructions_ += s.instructions;
    l1d_misses_ += s.l1d_misses;
    tlb_misses_ += s.tlb_misses;
  }

  std::uint64_t instructions() const { return instructions_; }
  std::uint64_t l1d_misses() const { return l1d_misses_; }
  std::uint64_t tlb_misses() const { return tlb_misses_; }

  void clear() {
    instructions_ = 0;
    l1d_misses_ = 0;
    tlb_misses_ = 0;
  }

 private:
  std::uint64_t instructions_ = 0;
  std::uint64_t l1d_misses_ = 0;
  std::uint64_t tlb_misses_ = 0;
};

}  // namespace eo::hw
