#include "hw/instr_stream.h"

#include <algorithm>

namespace eo::hw {

const char* to_string(SegmentKind k) {
  switch (k) {
    case SegmentKind::kRegular:
      return "regular";
    case SegmentKind::kTightLoop:
      return "tight-loop";
    case SegmentKind::kSpin:
      return "spin";
  }
  return "?";
}

void InstrStreamModel::accumulate(SegmentKind kind, SimDuration dur,
                                  Pmc* pmc) const {
  if (dur <= 0) return;
  switch (kind) {
    case SegmentKind::kRegular: {
      const RegularMeans m = regular_means(dur);
      pmc->add_segment(static_cast<std::uint64_t>(m.instructions),
                       m.l1d_misses, m.tlb_misses);
      break;
    }
    case SegmentKind::kTightLoop:
      // Register-resident loop: full issue rate, essentially no data traffic.
      pmc->add_segment(
          static_cast<std::uint64_t>(p_.instr_per_us * to_us(dur)), 0.0, 0.0);
      break;
    case SegmentKind::kSpin: {
      // Occasionally the spun-on line is invalidated by another core and the
      // re-read counts as a miss; this is the only source of BWD false
      // negatives.
      const double stray = p_.spin_stray_miss_prob * to_us(dur);
      pmc->add_segment(spin_iterations(dur) * 3,  // test, compare, branch
                       0.0, 0.0, 1.0 - std::min(1.0, stray));
      break;
    }
  }
}

PmcSample InstrStreamModel::sample(SegmentKind kind, SimDuration dur,
                                   Rng& rng) const {
  Pmc pmc;
  accumulate(kind, dur, &pmc);
  pmc.close_window(rng);
  return {pmc.instructions(), pmc.l1d_misses(), pmc.tlb_misses()};
}

RegularMeans InstrStreamModel::regular_means(SimDuration dur) const {
  const double instr = p_.instr_per_us * to_us(dur);
  return {instr, instr * p_.l1_miss_per_instr, instr * p_.tlb_miss_per_instr};
}

std::uint64_t InstrStreamModel::spin_iterations(SimDuration dur) const {
  if (dur <= 0) return 0;
  return static_cast<std::uint64_t>(static_cast<double>(dur) /
                                    p_.spin_iteration_ns);
}

}  // namespace eo::hw
