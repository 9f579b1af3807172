// MetricRegistry and the Sampler ring (src/obs).
#include <gtest/gtest.h>

#include "common/histogram.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "sim/engine.h"

namespace eo::obs {
namespace {

TEST(MetricRegistry, SnapshotPreservesRegistrationOrder) {
  MetricRegistry reg;
  const std::uint64_t cells[3] = {};
  reg.register_counter("b.second", &cells[0]);
  reg.register_counter("a.first", &cells[1]);
  reg.register_counter("c.third", &cells[2]);
  const auto snap = reg.snapshot_counters();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "b.second");
  EXPECT_EQ(snap[1].name, "a.first");
  EXPECT_EQ(snap[2].name, "c.third");
}

TEST(MetricRegistry, ExternalCounterReadsLiveValue) {
  MetricRegistry reg;
  std::uint64_t cell = 7;
  reg.register_counter("ext.cell", &cell);
  EXPECT_EQ(reg.snapshot_counters()[0].value, 7u);
  cell = 19;
  EXPECT_EQ(reg.snapshot_counters()[0].value, 19u);
}

TEST(MetricRegistry, GaugeReadsThroughCallback) {
  MetricRegistry reg;
  std::int64_t v = -3;
  reg.register_gauge("g.live", [&v] { return v; });
  EXPECT_EQ(reg.snapshot_gauges()[0].value, -3);
  v = 12;
  EXPECT_EQ(reg.snapshot_gauges()[0].value, 12);
}

TEST(MetricRegistry, HistogramRefAndHas) {
  MetricRegistry reg;
  Histogram h;
  h.add(100);
  reg.register_histogram("h.lat", &h);
  ASSERT_EQ(reg.histograms().size(), 1u);
  EXPECT_EQ(reg.histograms()[0].hist->total_count(), 1u);
  EXPECT_TRUE(reg.has("h.lat"));
  EXPECT_FALSE(reg.has("h.other"));
}

TEST(SeriesStore, OverwritesOldestAndCountsDropped) {
  SeriesStore s(2, 3);
  CoreSample cores[2] = {};
  for (int i = 0; i < 5; ++i) {
    TickSample t;
    t.ts = (i + 1) * 10;
    cores[0].rq_depth = i;
    s.push(t, cores);
  }
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.dropped(), 2u);
  std::vector<TickSample> ticks;
  std::vector<CoreSample> per_core;
  s.copy_ordered(&ticks, &per_core);
  ASSERT_EQ(ticks.size(), 3u);
  ASSERT_EQ(per_core.size(), 6u);  // frame-major, 2 cores per frame
  // Oldest retained frame is push #3 (ts 30).
  EXPECT_EQ(ticks[0].ts, 30);
  EXPECT_EQ(ticks[2].ts, 50);
  EXPECT_EQ(per_core[0].rq_depth, 2);
  EXPECT_EQ(per_core[4].rq_depth, 4);
}

TEST(Sampler, PeriodicTicksAndDeltas) {
  sim::Engine e;
  Sampler s(&e, 1);
  std::uint64_t cs = 0;
  SamplerConfig cfg;
  cfg.enabled = true;
  cfg.interval = 10;
  s.start(cfg,
          [&cs](CoreSample* cores, GlobalSample* g) {
            cores[0] = CoreSample{};
            *g = GlobalSample{};
            g->context_switches = cs;
            cs += 3;  // grows 3 per sample
          },
          nullptr);
  ASSERT_TRUE(s.enabled());
  e.run_until(100);
  EXPECT_EQ(s.ticks(), 10u);
  std::vector<TickSample> ticks;
  s.series().copy_ordered(&ticks, nullptr);
  ASSERT_EQ(ticks.size(), 10u);
  EXPECT_EQ(ticks[0].ts, 10);
  EXPECT_EQ(ticks[0].d_context_switches, 0u);  // no previous sample
  EXPECT_EQ(ticks[1].d_context_switches, 3u);
  EXPECT_EQ(ticks[9].d_context_switches, 3u);
  s.stop();
  EXPECT_FALSE(s.enabled());
}

TEST(Sampler, DisabledConfigIsNoOp) {
  sim::Engine e;
  Sampler s(&e, 1);
  s.start(SamplerConfig{}, [](CoreSample*, GlobalSample*) {}, nullptr);
  EXPECT_FALSE(s.enabled());
  e.run();  // no pending periodic event: drains immediately
  EXPECT_EQ(s.ticks(), 0u);
}

TEST(Sampler, HonorsRingCapacityOverride) {
  sim::Engine e;
  Sampler s(&e, 1);
  SamplerConfig cfg;
  cfg.enabled = true;
  cfg.interval = 1;
  cfg.ring_capacity = 4;
  s.start(cfg, [](CoreSample* c, GlobalSample* g) {
    c[0] = CoreSample{};
    *g = GlobalSample{};
  }, nullptr);
  e.run_until(20);
  EXPECT_EQ(s.ticks(), 20u);
  EXPECT_EQ(s.series().size(), 4u);
  EXPECT_EQ(s.series().dropped(), 16u);
}

}  // namespace
}  // namespace eo::obs
