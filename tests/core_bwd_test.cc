#include "core/bwd.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/units.h"
#include "hw/instr_stream.h"

namespace eo::core {
namespace {

class BwdTest : public ::testing::Test {
 protected:
  Features f_ = Features::optimized();
  BwdDetector det_{&f_};
  hw::InstrStreamModel instr_;
  hw::LbrState lbr_;
  hw::Pmc pmc_;
  Rng rng_{3};

  void exec(hw::SegmentKind kind, hw::BranchSite site, SimDuration dur) {
    lbr_.on_execute(kind, site, dur, instr_);
    instr_.accumulate(kind, dur, &pmc_);
    truth_.busy += dur;
    if (kind == hw::SegmentKind::kSpin) {
      truth_.spin += dur;
      if (truth_.dominant_site == hw::kVariedSites) {
        truth_.dominant_site = site;
      } else if (truth_.dominant_site != site) {
        truth_.multiple_spin_sites = true;
      }
    }
  }

  /// Closes the PMC window and evaluates it, as the BWD timer does.
  BwdVerdict evaluate() {
    pmc_.close_window(rng_);
    return det_.evaluate(lbr_, pmc_, truth_);
  }

  BwdWindowTruth truth_;
};

TEST_F(BwdTest, PureSpinWindowDetected) {
  exec(hw::SegmentKind::kSpin, 5, 100_us);
  const auto v = evaluate();
  EXPECT_TRUE(v.ground_truth_spin);
  // Detection is near-certain (stray misses are ~1e-3 per window).
  EXPECT_TRUE(v.detected || pmc_.l1d_misses() > 0);
}

TEST_F(BwdTest, RegularWindowNotDetected) {
  exec(hw::SegmentKind::kRegular, hw::kVariedSites, 100_us);
  const auto v = evaluate();
  EXPECT_FALSE(v.ground_truth_spin);
  EXPECT_FALSE(v.detected);
}

TEST_F(BwdTest, MixedWindowNotDetected) {
  // Regular code then spin: the regular part's misses block detection even
  // though the LBR tail is uniform.
  exec(hw::SegmentKind::kRegular, hw::kVariedSites, 50_us);
  exec(hw::SegmentKind::kSpin, 5, 50_us);
  const auto v = evaluate();
  EXPECT_FALSE(v.ground_truth_spin);
  EXPECT_FALSE(v.detected);
}

TEST_F(BwdTest, TightLoopIsFalsePositive) {
  exec(hw::SegmentKind::kTightLoop, 9, 100_us);
  const auto v = evaluate();
  EXPECT_FALSE(v.ground_truth_spin) << "a tight compute loop is not spinning";
  EXPECT_TRUE(v.detected) << "...but it defeats all three heuristics";
}

TEST_F(BwdTest, IdleWindowNeverFires) {
  const auto v = evaluate();
  EXPECT_FALSE(v.detected);
  EXPECT_FALSE(v.ground_truth_spin);
}

TEST_F(BwdTest, HeuristicAblationLbrOnly) {
  f_.bwd_use_l1 = false;
  f_.bwd_use_tlb = false;
  // With only the LBR heuristic, a window that ends in a long uniform run
  // is detected even though it had regular execution (and misses) earlier.
  exec(hw::SegmentKind::kRegular, hw::kVariedSites, 50_us);
  exec(hw::SegmentKind::kSpin, 5, 50_us);
  const auto v = evaluate();
  EXPECT_TRUE(v.detected);
  EXPECT_FALSE(v.ground_truth_spin);
}

TEST_F(BwdTest, AccuracyAccumulator) {
  BwdAccuracy acc;
  acc.add({true, true});    // TP
  acc.add({false, true});   // FN
  acc.add({true, false});   // FP
  acc.add({false, false});  // TN
  acc.add({false, false});  // TN
  EXPECT_EQ(acc.windows, 5u);
  EXPECT_EQ(acc.tp, 1u);
  EXPECT_EQ(acc.fn, 1u);
  EXPECT_EQ(acc.fp, 1u);
  EXPECT_EQ(acc.tn, 2u);
  EXPECT_DOUBLE_EQ(acc.sensitivity(), 0.5);
  EXPECT_DOUBLE_EQ(acc.specificity(), 2.0 / 3.0);
}

TEST_F(BwdTest, MultipleSpinSitesNotGroundTruth) {
  exec(hw::SegmentKind::kSpin, 5, 50_us);
  exec(hw::SegmentKind::kSpin, 6, 50_us);
  const auto v = evaluate();
  EXPECT_FALSE(v.ground_truth_spin);
}

}  // namespace
}  // namespace eo::core
