// Tests for the instruction-stream, LBR, and PMC models that feed BWD.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/units.h"
#include "hw/instr_stream.h"
#include "hw/lbr.h"
#include "hw/pmc.h"
#include "hw/ple.h"

namespace eo::hw {
namespace {

TEST(InstrStream, RegularCodeMatchesProfiledRates) {
  InstrStreamModel m;
  Rng rng(1);
  // The paper's profile: per 100us, ~300000 instructions, ~6667 L1 misses,
  // ~337 TLB misses. sample() reports only miss presence, so draw the counts
  // at the means it draws that presence from.
  const RegularMeans mean = m.regular_means(100_us);
  std::uint64_t instr = 0, l1 = 0, tlb = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    instr += static_cast<std::uint64_t>(mean.instructions);
    l1 += rng.poisson(mean.l1d_misses);
    tlb += rng.poisson(mean.tlb_misses);
  }
  EXPECT_NEAR(static_cast<double>(instr) / n, 300000.0, 3000.0);
  EXPECT_NEAR(static_cast<double>(l1) / n, 6667.0, 100.0);
  EXPECT_NEAR(static_cast<double>(tlb) / n, 337.0, 10.0);
}

TEST(InstrStream, RegularSampleReportsMissPresence) {
  InstrStreamModel m;
  // 3 ns and 300 ns sit below the inversion/normal cutover at a mean of 32
  // for both counters, 2 us only for TLB misses, and 100 us for neither.
  for (const SimDuration dur : {SimDuration{3}, SimDuration{300}, 2_us,
                                100_us}) {
    Rng a(5), b(5);
    const RegularMeans mean = m.regular_means(dur);
    for (int i = 0; i < 2000; ++i) {
      const auto s = m.sample(SegmentKind::kRegular, dur, a);
      ASSERT_EQ(s.l1d_misses, b.poisson(mean.l1d_misses) != 0 ? 1u : 0u);
      ASSERT_EQ(s.tlb_misses, b.poisson(mean.tlb_misses) != 0 ? 1u : 0u);
    }
    EXPECT_EQ(a.next_u64(), b.next_u64()) << dur << "ns";
  }
}

TEST(InstrStream, RegularWindowAlmostNeverMissFree) {
  InstrStreamModel m;
  Rng rng(2);
  int miss_free = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto s = m.sample(SegmentKind::kRegular, 100_us, rng);
    if (s.l1d_misses == 0 && s.tlb_misses == 0) ++miss_free;
  }
  EXPECT_EQ(miss_free, 0) << "a 100us regular window with zero misses should"
                          << " be essentially impossible (Poisson mean 6667)";
}

TEST(InstrStream, TightLoopIsMissFree) {
  InstrStreamModel m;
  Rng rng(3);
  const auto s = m.sample(SegmentKind::kTightLoop, 150_us, rng);
  EXPECT_EQ(s.l1d_misses, 0u);
  EXPECT_EQ(s.tlb_misses, 0u);
  EXPECT_GT(s.instructions, 0u);
}

TEST(InstrStream, SpinAlmostAlwaysMissFree) {
  InstrStreamModel m;
  Rng rng(4);
  int missy = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto s = m.sample(SegmentKind::kSpin, 100_us, rng);
    if (s.l1d_misses > 0) ++missy;
  }
  // The stray-miss probability keeps sensitivity just under 100% (Table 2).
  EXPECT_GT(missy, 0);
  EXPECT_LT(static_cast<double>(missy) / n, 0.01);
}

TEST(InstrStream, SpinIterations) {
  InstrStreamModel m;
  EXPECT_EQ(m.spin_iterations(0), 0u);
  EXPECT_GE(m.spin_iterations(100_us), 16u);  // easily fills the LBR
  EXPECT_EQ(m.spin_iterations(8), 2u);        // 4ns per iteration
}

TEST(Lbr, SpinRunFillsEntries) {
  InstrStreamModel m;
  LbrState lbr;
  lbr.on_execute(SegmentKind::kSpin, 7, 1_us, m);
  EXPECT_TRUE(lbr.all_entries_identical_backward());
  EXPECT_EQ(lbr.current_site(), 7);
}

TEST(Lbr, VeryShortSpinDoesNotFill) {
  InstrStreamModel m;
  LbrState lbr;
  lbr.on_execute(SegmentKind::kSpin, 7, 20, m);  // 20ns -> 5 iterations
  EXPECT_FALSE(lbr.all_entries_identical_backward());
}

TEST(Lbr, RegularCodeResetsRun) {
  InstrStreamModel m;
  LbrState lbr;
  lbr.on_execute(SegmentKind::kSpin, 7, 1_us, m);
  ASSERT_TRUE(lbr.all_entries_identical_backward());
  lbr.on_execute(SegmentKind::kRegular, kVariedSites, 100, m);
  EXPECT_FALSE(lbr.all_entries_identical_backward());
}

TEST(Lbr, SiteChangeRestartsRun) {
  InstrStreamModel m;
  LbrState lbr;
  lbr.on_execute(SegmentKind::kSpin, 7, 1_us, m);
  lbr.on_execute(SegmentKind::kSpin, 8, 30, m);  // ~7 iterations at new site
  EXPECT_FALSE(lbr.all_entries_identical_backward());
  lbr.on_execute(SegmentKind::kSpin, 8, 1_us, m);
  EXPECT_TRUE(lbr.all_entries_identical_backward());
  EXPECT_EQ(lbr.current_site(), 8);
}

TEST(Lbr, ClearResets) {
  InstrStreamModel m;
  LbrState lbr;
  lbr.on_execute(SegmentKind::kSpin, 7, 1_us, m);
  lbr.clear();
  EXPECT_FALSE(lbr.all_entries_identical_backward());
}

TEST(Pmc, AccumulateAndClear) {
  Pmc pmc;
  pmc.add_segment(100, 40.0, 0.0);
  pmc.add_segment(50, 0.0, 40.0);
  Rng rng(1);
  pmc.close_window(rng);
  // At a mean of 40 a miss-free counter has probability e^-40.
  EXPECT_EQ(pmc.instructions(), 150u);
  EXPECT_EQ(pmc.l1d_misses(), 1u);
  EXPECT_EQ(pmc.tlb_misses(), 1u);
  pmc.clear();
  EXPECT_EQ(pmc.instructions(), 0u);
  EXPECT_EQ(pmc.l1d_misses(), 0u);
  EXPECT_EQ(pmc.tlb_misses(), 0u);
  // clear() also drops the window's miss sums: closing it again draws none.
  pmc.close_window(rng);
  EXPECT_EQ(pmc.l1d_misses(), 0u);
  EXPECT_EQ(pmc.tlb_misses(), 0u);
}

TEST(Ple, DisabledByDefault) {
  PleModel ple;
  EXPECT_FALSE(ple.enabled());
  EXPECT_EQ(ple.exits_for(1_ms), 0u);
}

TEST(Ple, ExitsProportionalToSpinTime) {
  PleParams p;
  p.enabled = true;
  PleModel ple(p);
  EXPECT_EQ(ple.exits_for(5_us), 0u);          // below one window
  EXPECT_EQ(ple.exits_for(100_us), 10u);       // 10us per exit
  EXPECT_EQ(ple.overhead_for(100_us), 20_us);  // 2us per exit
}

}  // namespace
}  // namespace eo::hw
