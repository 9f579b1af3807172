// Performance-monitoring-counter window accumulator.
//
// BWD configures two PMCs per core — L1D misses and dTLB misses — and reads
// and clears them every monitoring interval. This class is that pair of
// counters plus the retired-instruction count used by tests and the timer
// overhead accounting. BWD reads the miss counters only as zero or nonzero,
// so the window carries no per-segment draw: each execution segment adds its
// exact instruction count, its expected miss counts and its chance of
// escaping a stray miss (`InstrStreamModel::accumulate`), and
// `close_window` draws the window's miss presence once from those totals.
// That is equal in distribution to drawing every segment: P(no miss) =
// Π exp(−mᵢ) = exp(−Σmᵢ), and independent stray Bernoullis multiply.
#pragma once

#include <cstdint>

#include "common/rng.h"

namespace eo::hw {

class Pmc {
 public:
  /// Adds one segment: its retired instructions, its expected L1D and dTLB
  /// miss counts, and the probability that it saw no stray L1D miss.
  void add_segment(std::uint64_t instructions, double l1d_mean,
                   double tlb_mean, double no_stray_miss = 1.0) {
    instructions_ += instructions;
    l1d_mean_ += l1d_mean;
    tlb_mean_ += tlb_mean;
    no_stray_miss_ *= no_stray_miss;
  }

  /// Draws the window's miss presence from the totals added since the last
  /// `clear`, in a fixed order: L1D, then dTLB, then the stray miss (which
  /// counts as an L1D miss). A window with nothing to draw (idle, or only
  /// tight-loop code) consumes nothing from `rng`.
  void close_window(Rng& rng) {
    const bool l1d = rng.poisson_positive(l1d_mean_);
    tlb_misses_ = rng.poisson_positive(tlb_mean_) ? 1 : 0;
    const bool stray = rng.chance(1.0 - no_stray_miss_);
    l1d_misses_ = l1d || stray ? 1 : 0;
  }

  std::uint64_t instructions() const { return instructions_; }
  /// Miss presence of the closed window: 1 if it missed at least once.
  std::uint64_t l1d_misses() const { return l1d_misses_; }
  std::uint64_t tlb_misses() const { return tlb_misses_; }

  void clear() { *this = Pmc{}; }

 private:
  std::uint64_t instructions_ = 0;
  std::uint64_t l1d_misses_ = 0;
  std::uint64_t tlb_misses_ = 0;
  double l1d_mean_ = 0.0;
  double tlb_mean_ = 0.0;
  double no_stray_miss_ = 1.0;
};

}  // namespace eo::hw
