#include "sched/load_balancer.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace eo::sched {
namespace {

class BalancerTest : public ::testing::Test {
 protected:
  BalancerTest()
      : topo_(hw::Topology::make_cores(4, 2)),
        lb_(&topo_, &params_, &counters_) {
    for (int i = 0; i < 4; ++i) {
      rqs_owned_.push_back(
          std::make_unique<Runqueue>(i, &params_, &counters_));
      rqs_.push_back(rqs_owned_.back().get());
    }
  }

  SchedEntity* add(int cpu, std::int64_t vr = 0) {
    entities_.push_back(std::make_unique<SchedEntity>());
    entities_.back()->vruntime = vr;
    rqs_[static_cast<size_t>(cpu)]->enqueue(entities_.back().get(), false);
    return entities_.back().get();
  }

  static bool always_online(int) { return true; }

  CfsParams params_;
  SchedCounters counters_;
  hw::Topology topo_;
  LoadBalancer lb_;
  std::vector<std::unique_ptr<Runqueue>> rqs_owned_;
  std::vector<Runqueue*> rqs_;
  std::vector<std::unique_ptr<SchedEntity>> entities_;
};

TEST_F(BalancerTest, NoPullWhenBalanced) {
  for (int c = 0; c < 4; ++c) add(c);
  EXPECT_FALSE(lb_.find_pull(0, rqs_, always_online, false).has_value());
}

TEST_F(BalancerTest, PullsFromBusiest) {
  add(1);
  add(1);
  add(1);
  const auto d = lb_.find_pull(0, rqs_, always_online, false);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src_cpu, 1);
  EXPECT_EQ(d->dst_cpu, 0);
  EXPECT_FALSE(d->cross_socket);  // cores 0,1 share socket 0
}

TEST_F(BalancerTest, CountsEveryAttemptAndEachDecidedPull) {
  for (int c = 0; c < 4; ++c) add(c);
  EXPECT_FALSE(lb_.find_pull(0, rqs_, always_online, false).has_value());
  add(1);
  add(1);
  EXPECT_TRUE(lb_.find_pull(0, rqs_, always_online, false).has_value());
  EXPECT_EQ(counters_.balance_attempts, 2u);
  EXPECT_EQ(counters_.balance_pulls, 1u);
}

TEST_F(BalancerTest, PrefersSameSocket) {
  // core 1 (socket 0) and core 2 (socket 1) both busier than core 0.
  add(1);
  add(1);
  add(2);
  add(2);
  add(2);  // core 2 busiest overall
  const auto d = lb_.find_pull(0, rqs_, always_online, false);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src_cpu, 1) << "same-socket pull wins even if remote is busier";
}

TEST_F(BalancerTest, CrossSocketWhenLocalBalanced) {
  add(2);
  add(2);
  add(2);
  const auto d = lb_.find_pull(0, rqs_, always_online, false);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src_cpu, 2);
  EXPECT_TRUE(d->cross_socket);
}

TEST_F(BalancerTest, NewlyIdleLowersThreshold) {
  add(1);
  add(1);  // imbalance of 2 vs empty core 0... make it exactly 1:
  rqs_[1]->dequeue(entities_.back().get());
  EXPECT_FALSE(lb_.find_pull(0, rqs_, always_online, false).has_value())
      << "periodic balance needs imbalance >= 2";
  EXPECT_TRUE(lb_.find_pull(0, rqs_, always_online, true).has_value())
      << "newly-idle balance pulls at imbalance 1";
}

TEST_F(BalancerTest, VbParkedCountsAsLoadButNeverMigrates) {
  auto* a = add(1);
  auto* b = add(1);
  auto* c = add(1);
  rqs_[1]->vb_park(a);
  rqs_[1]->vb_park(b);
  rqs_[1]->vb_park(c);
  // Load looks high (VB keeps parked threads counted) but there is no legal
  // victim, so no decision is produced.
  EXPECT_FALSE(lb_.find_pull(0, rqs_, always_online, true).has_value());
}

TEST_F(BalancerTest, OfflineCoresExcluded) {
  add(1);
  add(1);
  add(1);
  const auto offline1 = [](int i) { return i != 1; };
  const auto d = lb_.find_pull(0, rqs_, offline1, false);
  EXPECT_FALSE(d.has_value());
}

}  // namespace
}  // namespace eo::sched
