// Busy-waiting detection (paper Section 3.2).
//
// Every `bwd_interval` (100 µs) a per-core timer samples the core's LBR and
// PMCs. The detector flags spinning when, over the elapsed window:
//   1. all 16 LBR entries are identical backward branches,
//   2. there were no TLB misses, and
//   3. there were no L1D misses.
// Each heuristic can be disabled individually (for the ablation bench).
//
// The detector also receives the simulator's *ground truth* for the window
// (did the core spend the whole busy window spinning at one site?), which
// lets the accuracy tables (Tables 2 and 3) be computed as real confusion
// matrices over windows rather than asserted. The detector counts nothing:
// the kernel counts the windows it evaluates (`SchedStats::bwd_timer_fires`)
// and the detections (`bwd_detections`).
#pragma once

#include <cstdint>

#include "common/units.h"
#include "core/config.h"
#include "hw/lbr.h"
#include "hw/pmc.h"
#include "trace/trace.h"

namespace eo::core {

/// Simulator-side ground truth about one monitoring window on one core.
struct BwdWindowTruth {
  SimDuration busy = 0;           ///< time the core executed anything
  SimDuration spin = 0;           ///< portion spent in spin segments
  hw::BranchSite dominant_site = hw::kVariedSites;
  bool multiple_spin_sites = false;
};

struct BwdVerdict {
  bool detected = false;          ///< heuristics fired
  bool ground_truth_spin = false; ///< window was genuinely pure spin
};

/// Confusion-matrix accumulator over windows with nonzero busy time.
struct BwdAccuracy {
  std::uint64_t windows = 0;
  std::uint64_t tp = 0;
  std::uint64_t fp = 0;
  std::uint64_t fn = 0;
  std::uint64_t tn = 0;

  void add(const BwdVerdict& v) {
    ++windows;
    if (v.ground_truth_spin) {
      v.detected ? ++tp : ++fn;
    } else {
      v.detected ? ++fp : ++tn;
    }
  }

  double sensitivity() const {
    const auto d = tp + fn;
    return d ? static_cast<double>(tp) / static_cast<double>(d) : 0.0;
  }
  double specificity() const {
    const auto d = fp + tn;
    return d ? static_cast<double>(tn) / static_cast<double>(d) : 0.0;
  }
};

class BwdDetector {
 public:
  explicit BwdDetector(const Features* features) : f_(features) {}

  /// Wires the event tracer: every evaluated window with busy time emits a
  /// kBwdSample record (may be null).
  void set_tracer(trace::Tracer* t) { tracer_ = t; }

  /// Evaluates one window. `truth` is only used for the ground-truth label;
  /// detection consumes nothing but the modeled hardware state. `core` and
  /// `tid` only label the trace record.
  BwdVerdict evaluate(const hw::LbrState& lbr, const hw::Pmc& pmc,
                      const BwdWindowTruth& truth, int core = -1,
                      std::int32_t tid = 0) const;

 private:
  const Features* f_;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace eo::core
