#include "hw/instr_stream.h"

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

PmcSample InstrStreamModel::sample(SegmentKind kind, SimDuration dur,
                                   Rng& rng) const {
  PmcSample s;
  if (dur <= 0) return s;
  const double us = to_us(dur);
  switch (kind) {
    case SegmentKind::kRegular: {
      const RegularMeans m = regular_means(dur);
      s.instructions = static_cast<std::uint64_t>(m.instructions);
      s.l1d_misses = rng.poisson_positive(m.l1d_misses) ? 1 : 0;
      s.tlb_misses = rng.poisson_positive(m.tlb_misses) ? 1 : 0;
      break;
    }
    case SegmentKind::kTightLoop: {
      // Register-resident loop: full issue rate, essentially no data traffic.
      s.instructions = static_cast<std::uint64_t>(p_.instr_per_us * us);
      s.l1d_misses = 0;
      s.tlb_misses = 0;
      break;
    }
    case SegmentKind::kSpin: {
      s.instructions = spin_iterations(dur) * 3;  // test, compare, branch
      // Occasionally the spun-on line is invalidated by another core and the
      // re-read counts as a miss; this is the only source of BWD false
      // negatives.
      if (rng.chance(p_.spin_stray_miss_prob * us)) s.l1d_misses = 1;
      break;
    }
  }
  return s;
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
