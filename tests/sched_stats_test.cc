// SchedStats X-macro sync: the struct and the metric-registry bridge must
// both cover every field. A field added to the struct without going through
// EO_SCHED_STATS_FIELDS trips the sizeof static_assert in sched_stats.cc at
// compile time; these tests pin the runtime half.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sched/sched_stats.h"

namespace eo::sched {
namespace {

std::vector<std::string> field_names() {
  std::vector<std::string> names;
#define EO_SCHED_STATS_NAME(name) names.push_back(#name);
  EO_SCHED_STATS_FIELDS(EO_SCHED_STATS_NAME)
#undef EO_SCHED_STATS_NAME
  return names;
}

// Gives each field a distinct value via the layout the static_assert pins
// (plain uint64 fields, declaration order).
SchedStats make_distinct() {
  SchedStats s;
  std::uint64_t vals[sizeof(SchedStats) / sizeof(std::uint64_t)];
  for (std::size_t i = 0; i < std::size(vals); ++i) {
    vals[i] = 1000 + i;
  }
  std::memcpy(&s, vals, sizeof(s));
  return s;
}

TEST(SchedStats, RegistryBridgeCoversEveryFieldInOrder) {
  const SchedStats s = make_distinct();
  obs::MetricRegistry reg;
  s.register_metrics(&reg);
  const auto snap = reg.snapshot_counters();
  const auto names = field_names();
  ASSERT_EQ(snap.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(snap[i].name, "sched." + names[i]);
    EXPECT_EQ(snap[i].value, 1000 + i);
  }
}

TEST(SchedStats, BridgeReadsLiveCells) {
  SchedStats s;
  obs::MetricRegistry reg;
  s.register_metrics(&reg);
  s.context_switches = 17;
  bool found = false;
  for (const auto& c : reg.snapshot_counters()) {
    if (c.name == "sched.context_switches") {
      EXPECT_EQ(c.value, 17u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SchedStats, TotalMigrationsSumsBothKinds) {
  SchedStats s;
  s.migrations_in_node = 3;
  s.migrations_cross_node = 4;
  EXPECT_EQ(s.total_migrations(), 7u);
}

}  // namespace
}  // namespace eo::sched
