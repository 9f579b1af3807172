// TimelineAnalyzer cross-checks: replaying a kernel run's trace must
// re-derive the kernel's own live counters — context switches, wakeups, VB
// parks and flag-check quanta, BWD deschedules — and reproduce the
// wakeup-latency histogram the kernel recorded.
#include <gtest/gtest.h>

#include <numeric>

#include "metrics/experiment.h"
#include "trace/timeline.h"
#include "workloads/suite.h"

namespace eo {
namespace {

using metrics::RunConfig;
using metrics::RunResult;
using metrics::run_experiment;

RunResult traced_run(const char* bench, core::Features f) {
  const auto& spec = workloads::find_benchmark(bench);
  RunConfig rc;
  rc.cpus = 4;
  rc.sockets = 2;
  rc.features = f;
  rc.ref_footprint = spec.ref_footprint();
  rc.deadline = 300_s;
  rc.trace.enabled = true;
  rc.trace.ring_capacity = 1u << 20;
  return run_experiment(rc, [&](kern::Kernel& k) {
    workloads::spawn_benchmark(k, spec, 16, 42, 0.05);
  });
}

#define ASSERT_TRACED(r)                     \
  do {                                       \
    ASSERT_TRUE((r).trace != nullptr);       \
    ASSERT_FALSE((r).trace->events.empty()); \
  } while (0)

TEST(TraceTimeline, ReplayMatchesSchedStats) {
  const auto r = traced_run("cg", core::Features::optimized());
  ASSERT_TRACED(r);
  ASSERT_EQ(r.trace->dropped, 0u);
  const auto tl = trace::TimelineAnalyzer::analyze(*r.trace);
  EXPECT_EQ(tl.events, r.trace->events.size());
  EXPECT_EQ(tl.context_switches, r.stats.context_switches);
  EXPECT_EQ(tl.wakeups, r.stats.wakeups);
  EXPECT_EQ(tl.vb_parks, r.stats.vb_parks);
  EXPECT_EQ(tl.vb_skip_quanta, r.stats.vb_check_quanta);
  EXPECT_EQ(tl.bwd_desched, r.stats.bwd_descheduled);
  EXPECT_EQ(tl.bwd_desched_true + tl.bwd_desched_false, tl.bwd_desched);
  // Per-task skip counts sum to the total.
  const auto sum = std::accumulate(
      tl.vb_skips_by_tid.begin(), tl.vb_skips_by_tid.end(), std::uint64_t{0},
      [](std::uint64_t acc, const auto& kv) { return acc + kv.second; });
  EXPECT_EQ(sum, tl.vb_skip_quanta);
}

TEST(TraceTimeline, WakeupLatencyReproducesKernelHistogram) {
  const auto r = traced_run("cg", core::Features::optimized());
  ASSERT_TRACED(r);
  ASSERT_EQ(r.trace->dropped, 0u);
  const auto tl = trace::TimelineAnalyzer::analyze(*r.trace);
  ASSERT_GT(r.wakeup_latency.total_count(), 0u);
  EXPECT_EQ(tl.wakeup_latency.total_count(), r.wakeup_latency.total_count());
  // The paper-facing acceptance bound is 1%; the records carry the exact
  // latencies the kernel histogrammed, so the quantiles match exactly.
  EXPECT_EQ(tl.wakeup_latency.p50(), r.wakeup_latency.p50());
  EXPECT_EQ(tl.wakeup_latency.p99(), r.wakeup_latency.p99());
  EXPECT_EQ(tl.wakeup_latency.min(), r.wakeup_latency.min());
  EXPECT_EQ(tl.wakeup_latency.max(), r.wakeup_latency.max());
}

TEST(TraceTimeline, RqDepthTimelineIsConsistent) {
  const auto r = traced_run("cg", core::Features::vanilla());
  ASSERT_TRACED(r);
  const auto tl = trace::TimelineAnalyzer::analyze(*r.trace);
  ASSERT_EQ(tl.rq_depth.size(), static_cast<std::size_t>(r.trace->n_cores));
  bool any = false;
  for (const auto& core_points : tl.rq_depth) {
    SimTime prev = -1;
    for (const auto& p : core_points) {
      EXPECT_GE(p.ts, prev);  // time-ordered per core
      prev = p.ts;
      any = true;
    }
  }
  EXPECT_TRUE(any);
  EXPECT_GE(tl.span_end, tl.span_begin);
}

TEST(TraceTimeline, VanillaRunHasNoVbOrBwdRecords) {
  const auto r = traced_run("cg", core::Features::vanilla());
  ASSERT_TRACED(r);
  const auto tl = trace::TimelineAnalyzer::analyze(*r.trace);
  EXPECT_EQ(tl.vb_parks, 0u);
  EXPECT_EQ(tl.vb_skip_quanta, 0u);
  EXPECT_EQ(tl.bwd_samples, 0u);
  EXPECT_EQ(tl.bwd_desched, 0u);
  EXPECT_GT(tl.context_switches, 0u);
}

}  // namespace
}  // namespace eo
