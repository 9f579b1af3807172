// FleetAggregator contract tests: the merged eo-metrics-fleet document is a
// pure function of the per-host inputs (add_host order must not matter, down
// to the rendered bytes), counters sum exactly, gauges reduce to
// min/mean/max, fleet histograms merge the raw per-host distributions, and
// every recorded watchdog violation is attributable via its `host=<h>`
// prefix. The structural validator is exercised on both the happy path and
// targeted corruptions.
#include "obs/fleet_agg.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/histogram.h"

namespace eo::obs {
namespace {

/// A synthetic host snapshot: deterministic, distinct per host index.
struct SyntheticHost {
  MetricsDoc doc;
  Histogram lat;

  explicit SyntheticHost(int h) {
    doc.n_cores = 4;
    doc.interval = 1_ms;
    doc.ticks = 10 + static_cast<std::uint64_t>(h);
    doc.dropped_ticks = static_cast<std::uint64_t>(h);
    doc.counters.push_back({"sched.switches", 100u * (h + 1)});
    doc.counters.push_back({"vb.parks", 7u * (h + 1)});
    doc.gauges.push_back({"rq.depth", 2 * h + 1});
    doc.core_series.resize(8);
    for (auto& cs : doc.core_series) cs.rq_depth = h + 1;
    doc.watchdog_checks = 50;
    if (h == 1) {
      doc.watchdog_violations = 1;
      doc.violation_records.push_back(
          {/*ts=*/123, "affinity", "core 2 ran a pinned-away task"});
    }
    for (int i = 0; i < 100; ++i) lat.add(1000 * (h + 1) + i);
  }

  FleetHostSample sample() const {
    FleetHostSample s;
    s.host = -1;  // caller fills in
    s.doc = &doc;
    s.histograms.emplace_back("serve.latency", &lat);
    s.issued = 10u * static_cast<std::uint64_t>(lat.total_count());
    s.completed = lat.total_count();
    s.shed = 5;
    s.p99_ns = lat.p99();
    return s;
  }
};

FleetMetricsDoc merge_in_order(const std::vector<SyntheticHost>& hosts,
                               const std::vector<int>& order) {
  FleetAggregator agg;
  for (int h : order) {
    FleetHostSample s = hosts[static_cast<std::size_t>(h)].sample();
    s.host = h;
    agg.add_host(s);
  }
  return agg.finish();
}

TEST(FleetAgg, MergeIsAddHostOrderIndependent) {
  std::vector<SyntheticHost> hosts;
  for (int h = 0; h < 4; ++h) hosts.emplace_back(h);
  const FleetMetricsDoc fwd = merge_in_order(hosts, {0, 1, 2, 3});
  const FleetMetricsDoc rev = merge_in_order(hosts, {3, 1, 2, 0});
  // Byte-identical rendering, not just field-wise equality: this is the
  // property that makes --jobs=N fleet exports match --jobs=1.
  EXPECT_EQ(render_fleet(fwd, "json"), render_fleet(rev, "json"));
  EXPECT_EQ(fwd.hosts.size(), 4u);
  for (std::size_t h = 0; h < 4; ++h) {
    EXPECT_EQ(fwd.hosts[h].host, static_cast<int>(h));
  }
}

TEST(FleetAgg, CountersSumAndGaugesReduce) {
  std::vector<SyntheticHost> hosts;
  for (int h = 0; h < 3; ++h) hosts.emplace_back(h);
  const FleetMetricsDoc doc = merge_in_order(hosts, {2, 0, 1});
  ASSERT_EQ(doc.counters.size(), 2u);
  EXPECT_EQ(doc.counters[0].name, "sched.switches");
  EXPECT_EQ(doc.counters[0].value, 100u * (1 + 2 + 3));
  EXPECT_EQ(doc.counters[1].value, 7u * (1 + 2 + 3));
  // Gauge values per host: 1, 3, 5 -> min 1, max 5, mean 3.
  ASSERT_EQ(doc.gauges.size(), 1u);
  EXPECT_EQ(doc.gauges[0].min, 1);
  EXPECT_EQ(doc.gauges[0].max, 5);
  EXPECT_DOUBLE_EQ(doc.gauges[0].mean, 3.0);
  // Ticks sum; per-host mean rq depth comes from the retained core series.
  EXPECT_EQ(doc.ticks, 10u + 11u + 12u);
  EXPECT_DOUBLE_EQ(doc.hosts[2].mean_rq_depth, 3.0);
}

TEST(FleetAgg, HistogramsMergeRawDistributions) {
  std::vector<SyntheticHost> hosts;
  for (int h = 0; h < 3; ++h) hosts.emplace_back(h);
  const FleetMetricsDoc doc = merge_in_order(hosts, {0, 1, 2});
  ASSERT_EQ(doc.histograms.size(), 1u);
  EXPECT_EQ(doc.histograms[0].name, "serve.latency");
  EXPECT_EQ(doc.histograms[0].count, 300u);
  // The fleet quantile comes from the true merged distribution: a reference
  // merge of the same raw histograms must agree exactly.
  Histogram ref;
  for (const auto& h : hosts) ref.merge(h.lat);
  EXPECT_EQ(doc.histograms[0].p99, ref.p99());
  EXPECT_EQ(doc.histograms[0].min, ref.min());
  EXPECT_EQ(doc.histograms[0].max, ref.max());
}

TEST(FleetAgg, ViolationsAreHostTagged) {
  std::vector<SyntheticHost> hosts;
  for (int h = 0; h < 3; ++h) hosts.emplace_back(h);
  const FleetMetricsDoc doc = merge_in_order(hosts, {2, 1, 0});
  EXPECT_EQ(doc.watchdog_checks, 150u);
  EXPECT_EQ(doc.watchdog_violations, 1u);
  ASSERT_EQ(doc.violation_records.size(), 1u);
  EXPECT_EQ(doc.violation_records[0].invariant, "host=1 affinity");
  EXPECT_EQ(doc.violation_records[0].detail,
            "core 2 ran a pinned-away task");

  // The standalone single-doc tagger applies the same prefix, once.
  const MetricsDoc tagged = tag_host_violations(hosts[1].doc, 1);
  ASSERT_EQ(tagged.violation_records.size(), 1u);
  EXPECT_EQ(tagged.violation_records[0].invariant, "host=1 affinity");

  // The tag reaches the exported document.
  EXPECT_NE(render_fleet(doc, "json").find(R"("invariant":"host=1 affinity")"),
            std::string::npos);
}

TEST(FleetAgg, RenderedJsonValidates) {
  std::vector<SyntheticHost> hosts;
  for (int h = 0; h < 3; ++h) hosts.emplace_back(h);
  const std::string json = render_fleet(merge_in_order(hosts, {0, 1, 2}),
                                        "json");
  std::string err;
  EXPECT_TRUE(validate_fleet_metrics_json(json, &err)) << err;

  // Targeted corruptions must be caught, with the reason naming the field.
  auto corrupt = [&](const std::string& from, const std::string& to) {
    std::string bad = json;
    const auto pos = bad.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    bad.replace(pos, from.size(), to);
    std::string why;
    EXPECT_FALSE(validate_fleet_metrics_json(bad, &why)) << from;
  };
  corrupt("\"eo-metrics-fleet\"", "\"eo-metrics\"");   // wrong schema
  corrupt("\"host\":0", "\"host\":7");                 // hosts not 0..n-1
  corrupt("\"host=1 affinity\"", "\"affinity\"");      // untagged violation
  // The sections shared with eo-metrics (obs_export_test feeds the same
  // corruptions to validate_metrics_json).
  corrupt(R"("name":"sched.switches")", R"("label":"sched.switches")");
  corrupt(R"("p999":3099)", R"("p998":3099)");
  corrupt(R"("invariant":"host=1 affinity")", R"("rule":"host=1 affinity")");
  corrupt(R"("records":[)", R"("records":{},"was_records":[)");
  corrupt(R"("schema_version":1)", R"("schema_version":2)");
}

TEST(FleetAgg, JsonRendersExactly) {
  // Every key, its order and every number's format, including the
  // host-tagged violation record.
  std::vector<SyntheticHost> hosts;
  for (int h = 0; h < 3; ++h) hosts.emplace_back(h);
  EXPECT_EQ(render_fleet(merge_in_order(hosts, {0, 1, 2}), "json"),
      R"({"schema":"eo-metrics-fleet","schema_version":1,"n_hosts":3,)"
      R"("n_cores":4,"interval_ns":1000000,"ticks":33,"dropped_ticks":3,)"
      R"("counters":[{"name":"sched.switches","value":600},)"
      R"({"name":"vb.parks","value":42}],"gauges":[{"name":"rq.depth",)"
      R"("min":1,"mean":3,"max":5}],"histograms":[{"name":"serve.latency",)"
      R"("count":300,"min":1000,"max":3099,"mean":2049.5,"p50":2111,)"
      R"("p95":3099,"p99":3099,"p999":3099}],"hosts":[{"host":0,)"
      R"("issued":1000,"completed":100,"shed":5,"p99_ns":1099,)"
      R"("queue_p99_ns":0,"service_p99_ns":0,"sched_delay_p99_ns":0,)"
      R"("mean_rq_depth":1,"vb_park_rate":0,"bwd_skip_rate":0,"ticks":10,)"
      R"("watchdog_violations":0},{"host":1,"issued":1000,"completed":100,)"
      R"("shed":5,"p99_ns":2099,"queue_p99_ns":0,"service_p99_ns":0,)"
      R"("sched_delay_p99_ns":0,"mean_rq_depth":2,"vb_park_rate":0,)"
      R"("bwd_skip_rate":0,"ticks":11,"watchdog_violations":1},{"host":2,)"
      R"("issued":1000,"completed":100,"shed":5,"p99_ns":3099,)"
      R"("queue_p99_ns":0,"service_p99_ns":0,"sched_delay_p99_ns":0,)"
      R"("mean_rq_depth":3,"vb_park_rate":0,"bwd_skip_rate":0,"ticks":12,)"
      R"("watchdog_violations":0}],"watchdog":{"checks":150,"violations":1,)"
      R"("records":[{"ts_ns":123,"invariant":"host=1 affinity",)"
      R"("detail":"core 2 ran a pinned-away task"}]}})"
      "\n");
}

}  // namespace
}  // namespace eo::obs
