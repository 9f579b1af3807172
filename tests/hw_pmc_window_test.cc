// Tests that drawing PMC miss presence once per BWD window, from the
// window's summed means, matches the per-segment model in distribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "hw/instr_stream.h"
#include "hw/pmc.h"

namespace eo::hw {
namespace {

struct Segment {
  SegmentKind kind;
  SimDuration dur;
};

// A random window of 1-6 segments of 50 ns-1 us. `kinds` bounds the kinds
// drawn: 3 mixes all of them, 2 only tight-loop and spin code.
std::vector<Segment> random_mix(Rng& rng, int kinds) {
  std::vector<Segment> mix(static_cast<std::size_t>(rng.uniform(1, 6)));
  for (Segment& s : mix) {
    const auto k = rng.uniform(3 - kinds, 2);
    s.kind = k == 0   ? SegmentKind::kRegular
             : k == 1 ? SegmentKind::kTightLoop
                      : SegmentKind::kSpin;
    s.dur = rng.uniform(50, 1000);
  }
  return mix;
}

// Rates that put a window's miss-free probabilities between ~0.05 and ~0.95,
// where a frequency test can tell them apart: one L1D miss per µs, one dTLB
// miss per 2 µs, a 20% stray-miss chance per spun µs.
InstrProfile testable_profile() {
  InstrProfile p;
  p.l1_miss_per_instr = 1.0 / 3000.0;
  p.tlb_miss_per_instr = 1.0 / 6000.0;
  p.spin_stray_miss_prob = 0.2;
  return p;
}

TEST(PmcWindow, InstructionsEqualPerSegmentSum) {
  const InstrStreamModel m;
  Rng mixes(11), draws(12);
  for (int w = 0; w < 500; ++w) {
    const auto mix = random_mix(mixes, 3);
    Pmc pmc;
    std::uint64_t sum = 0;
    for (const Segment& s : mix) {
      m.accumulate(s.kind, s.dur, &pmc);
      sum += m.sample(s.kind, s.dur, draws).instructions;
    }
    pmc.close_window(draws);
    ASSERT_EQ(pmc.instructions(), sum) << "window " << w;
  }
}

// Each mix's window is drawn kTrials times; the observed miss-free count
// must lie within 5 binomial standard deviations, sqrt(n p (1 - p)), of
// n p for the per-segment model's p. A per-segment-exact model fails this
// with probability ~6e-7 per check.
constexpr int kTrials = 4000;

void expect_binomial(int observed, double p, const char* what, int mix) {
  const double mean = kTrials * p;
  const double sd = std::sqrt(kTrials * p * (1.0 - p));
  EXPECT_NEAR(observed, mean, 5.0 * sd + 1e-9)
      << what << " in mix " << mix << ": p = " << p;
}

TEST(PmcWindow, MissFreeFrequenciesMatchPerSegmentModel) {
  const InstrProfile prof = testable_profile();
  const InstrStreamModel m(prof);
  Rng mixes(21), draws(22);
  for (int mix_id = 0; mix_id < 20; ++mix_id) {
    const auto mix = random_mix(mixes, 3);
    // Per segment: P(no L1D miss) = exp(-m_i) * (1 - stray_i), P(no dTLB
    // miss) = exp(-t_i); independent segments multiply.
    double no_l1d = 1.0, no_tlb = 1.0;
    for (const Segment& s : mix) {
      if (s.kind == SegmentKind::kRegular) {
        const RegularMeans r = m.regular_means(s.dur);
        no_l1d *= std::exp(-r.l1d_misses);
        no_tlb *= std::exp(-r.tlb_misses);
      } else if (s.kind == SegmentKind::kSpin) {
        no_l1d *= 1.0 - std::min(1.0, prof.spin_stray_miss_prob *
                                          to_us(s.dur));
      }
    }
    int l1d_free = 0, tlb_free = 0;
    for (int i = 0; i < kTrials; ++i) {
      Pmc pmc;
      for (const Segment& s : mix) m.accumulate(s.kind, s.dur, &pmc);
      pmc.close_window(draws);
      l1d_free += pmc.l1d_misses() == 0 ? 1 : 0;
      tlb_free += pmc.tlb_misses() == 0 ? 1 : 0;
    }
    expect_binomial(l1d_free, no_l1d, "no L1D miss", mix_id);
    expect_binomial(tlb_free, no_tlb, "no dTLB miss", mix_id);
  }
}

TEST(PmcWindow, StrayMissFrequencyMatchesPerSegmentModel) {
  // Without regular code the only L1D miss a window can show is a stray one.
  const InstrProfile prof = testable_profile();
  const InstrStreamModel m(prof);
  Rng mixes(31), draws(32);
  int spun = 0;
  for (int mix_id = 0; mix_id < 20; ++mix_id) {
    const auto mix = random_mix(mixes, 2);
    double clean = 1.0;
    for (const Segment& s : mix) {
      if (s.kind != SegmentKind::kSpin) continue;
      clean *= 1.0 - prof.spin_stray_miss_prob * to_us(s.dur);
      ++spun;
    }
    int stray = 0;
    for (int i = 0; i < kTrials; ++i) {
      Pmc pmc;
      for (const Segment& s : mix) m.accumulate(s.kind, s.dur, &pmc);
      pmc.close_window(draws);
      stray += static_cast<int>(pmc.l1d_misses());
      ASSERT_EQ(pmc.tlb_misses(), 0u);
    }
    expect_binomial(kTrials - stray, clean, "no stray miss", mix_id);
  }
  EXPECT_GT(spun, 20) << "the mixes must exercise spin segments";
}

TEST(PmcWindow, IdleOrTightLoopWindowDrawsNothing) {
  const InstrStreamModel m;
  Rng rng(41);
  const Rng before = rng;
  // Idle: nothing added, or only segments of no length.
  Pmc idle;
  for (const SegmentKind k :
       {SegmentKind::kRegular, SegmentKind::kTightLoop, SegmentKind::kSpin}) {
    m.accumulate(k, 0, &idle);
    m.accumulate(k, -5, &idle);
  }
  idle.close_window(rng);
  EXPECT_EQ(idle.instructions(), 0u);
  Pmc tight;
  m.accumulate(SegmentKind::kTightLoop, 100_us, &tight);
  m.accumulate(SegmentKind::kTightLoop, 3, &tight);
  tight.close_window(rng);
  EXPECT_GT(tight.instructions(), 0u);
  EXPECT_EQ(tight.l1d_misses(), 0u);
  EXPECT_EQ(tight.tlb_misses(), 0u);
  Rng untouched = before;
  EXPECT_EQ(rng.next_u64(), untouched.next_u64())
      << "closing a window with nothing to draw must not consume the stream";
}

}  // namespace
}  // namespace eo::hw
