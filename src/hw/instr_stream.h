// Instruction-stream model for the PMC/LBR machinery.
//
// BWD (Section 3.2) consumes three hardware signals: the last-branch-record
// ring, L1D miss counts, and TLB miss counts. Rather than hard-coding
// detector outcomes, the simulator generates these signals from a stochastic
// model of each code segment, using the rates the paper itself profiled
// across PARSEC/SPLASH-2/NPB: 3000 instructions retired per microsecond,
// one L1D miss per 45 instructions, one TLB miss per 890 instructions
// (≈6667 L1 and ≈337 TLB misses per 100 µs window). Detection then *follows*
// from the model, so sensitivity/specificity are genuine measurements. Each
// segment adds its expected miss counts to the core's `Pmc` window, and the
// window draws once whether it missed, not how often: that is all BWD's
// "no misses in the window" heuristics read.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/units.h"
#include "hw/pmc.h"

namespace eo::hw {

/// Character of the code a task is currently executing, as seen by the PMUs.
enum class SegmentKind {
  /// Ordinary application code: varied branches, the profiled miss rates.
  kRegular,
  /// A tight compute loop with essentially no data traffic (the rare shape
  /// responsible for BWD false positives, Table 3).
  kTightLoop,
  /// A busy-wait loop: identical backward branches, fully cached operands.
  kSpin,
};

const char* to_string(SegmentKind k);

struct InstrProfile {
  double instr_per_us = 3000.0;
  double l1_miss_per_instr = 1.0 / 45.0;
  double tlb_miss_per_instr = 1.0 / 890.0;
  /// Cycles per spin-loop iteration (a few cycles; ~5 iterations per 10 ns
  /// at 2.1 GHz). Expressed as ns per iteration.
  double spin_iteration_ns = 4.0;
  /// Residual probability that a spin window still shows a stray miss (e.g.
  /// the line holding the lock was invalidated by the releasing core); this
  /// is what keeps BWD's true-positive rate just under 100% (Table 2).
  double spin_stray_miss_prob = 0.000015;
};

/// Sampled PMC deltas of a one-segment window. BWD only asks whether a
/// window saw any miss, so the miss fields report presence: 1 when the
/// segment missed at least once, else 0. `instructions` is a count.
struct PmcSample {
  std::uint64_t instructions = 0;
  std::uint64_t l1d_misses = 0;
  std::uint64_t tlb_misses = 0;
};

/// Expected PMC counts of a regular-code segment.
struct RegularMeans {
  double instructions = 0.0;
  double l1d_misses = 0.0;
  double tlb_misses = 0.0;
};

/// Generates PMC deltas for a segment execution of a given duration.
class InstrStreamModel {
 public:
  explicit InstrStreamModel(const InstrProfile& p = {}) : p_(p) {}

  const InstrProfile& profile() const { return p_; }

  /// Adds a segment of `dur` to the open window `pmc` without drawing: its
  /// exact instruction count, `regular_means(dur)` for regular code, and for
  /// spin code the chance 1 − min(1, spin_stray_miss_prob·µs) that the
  /// spun-on line stayed cached. `Pmc::close_window` draws the presence.
  void accumulate(SegmentKind kind, SimDuration dur, Pmc* pmc) const;

  /// A one-segment window: `accumulate` into a fresh `Pmc`, then close it.
  PmcSample sample(SegmentKind kind, SimDuration dur, Rng& rng) const;

  /// The profiled rates of a regular segment of `dur`.
  RegularMeans regular_means(SimDuration dur) const;

  /// Number of spin-loop iterations (== backward branches) executed in `dur`.
  std::uint64_t spin_iterations(SimDuration dur) const;

 private:
  InstrProfile p_;
};

}  // namespace eo::hw
