// eo-metrics exporters and the structural validator (src/obs/export).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "obs/export.h"

namespace eo::obs {
namespace {

MetricsDoc make_doc() {
  MetricsDoc doc;
  doc.n_cores = 2;
  doc.interval = 1000000;  // 1 ms
  doc.ticks = 3;
  doc.counters.push_back({"sched.context_switches", 12});
  doc.counters.push_back({"vb.decisions", 4});
  doc.gauges.push_back({"kern.live_tasks", 5});
  HistogramSummary h;
  h.name = "kern.wakeup_latency_ns";
  h.count = 2;
  h.min = 100;
  h.max = 300;
  h.mean = 200.0;
  h.p50 = 100;
  h.p95 = 300;
  h.p99 = 300;
  h.p999 = 300;
  doc.histograms.push_back(h);
  for (int f = 0; f < 3; ++f) {
    TickSample t;
    t.ts = (f + 1) * 1000000;
    t.live_tasks = 5;
    t.online_cores = 2;
    t.d_context_switches = f == 0 ? 0 : 2;
    doc.tick_series.push_back(t);
    for (int c = 0; c < 2; ++c) {
      CoreSample s;
      s.rq_depth = c + 1;
      s.schedulable = c + 1;
      s.running = 1;
      s.online = 1;
      doc.core_series.push_back(s);
    }
  }
  doc.watchdog_checks = 3;
  return doc;
}

TEST(ObsExport, JsonRendersAndValidates) {
  const std::string text = render(make_doc(), "json");
  std::string err;
  EXPECT_TRUE(validate_metrics_json(text, &err)) << err;
  EXPECT_NE(text.find("\"schema\":\"eo-metrics\""), std::string::npos);
}

TEST(ObsExport, JsonIsDeterministic) {
  // Same document -> byte-identical text (export order is registration
  // order; nothing host-dependent is rendered).
  EXPECT_EQ(render(make_doc(), "json"), render(make_doc(), "json"));
}

TEST(ObsExport, JsonRendersExactly) {
  // Every key, its order and every number's format: a dropped field or a
  // reordered key fails here even though the document would still validate.
  EXPECT_EQ(render(make_doc(), "json"),
      R"({"schema":"eo-metrics","schema_version":1,"n_cores":2,)"
      R"("interval_ns":1000000,"ticks":3,"dropped_ticks":0,)"
      R"("counters":[{"name":"sched.context_switches","value":12},)"
      R"({"name":"vb.decisions","value":4}],)"
      R"("gauges":[{"name":"kern.live_tasks","value":5}],)"
      R"("histograms":[{"name":"kern.wakeup_latency_ns","count":2,"min":100,)"
      R"("max":300,"mean":200,"p50":100,"p95":300,"p99":300,"p999":300}],)"
      R"("series":{"ticks":[{"ts_ns":1000000,"live_tasks":5,"online_cores":2,)"
      R"("d_context_switches":0,"d_wakeups":0,"d_migrations":0},)"
      R"({"ts_ns":2000000,"live_tasks":5,"online_cores":2,)"
      R"("d_context_switches":2,"d_wakeups":0,"d_migrations":0},)"
      R"({"ts_ns":3000000,"live_tasks":5,"online_cores":2,)"
      R"("d_context_switches":2,"d_wakeups":0,"d_migrations":0}],)"
      R"("cores":[{"core":0,"samples":[{"rq":1,"sched":1,"vb":0,"skip":0,)"
      R"("run":1,"on":1},{"rq":1,"sched":1,"vb":0,"skip":0,"run":1,"on":1},)"
      R"({"rq":1,"sched":1,"vb":0,"skip":0,"run":1,"on":1}]},{"core":1,)"
      R"("samples":[{"rq":2,"sched":2,"vb":0,"skip":0,"run":1,"on":1},)"
      R"({"rq":2,"sched":2,"vb":0,"skip":0,"run":1,"on":1},{"rq":2,"sched":2,)"
      R"("vb":0,"skip":0,"run":1,"on":1}]}]},"watchdog":{"checks":3,)"
      R"("violations":0,"records":[]}})"
      "\n");
}

TEST(ObsExport, CsvRendersExactly) {
  EXPECT_EQ(render(make_doc(), "csv"),
            "ts_ns,core,rq_depth,schedulable,vb_parked,bwd_skipped,running,"
            "online,live_tasks,online_cores,d_context_switches,d_wakeups,"
            "d_migrations\n"
            "1000000,-1,,,,,,,5,2,0,0,0\n"
            "1000000,0,1,1,0,0,1,1,,,,,\n"
            "1000000,1,2,2,0,0,1,1,,,,,\n"
            "2000000,-1,,,,,,,5,2,2,0,0\n"
            "2000000,0,1,1,0,0,1,1,,,,,\n"
            "2000000,1,2,2,0,0,1,1,,,,,\n"
            "3000000,-1,,,,,,,5,2,2,0,0\n"
            "3000000,0,1,1,0,0,1,1,,,,,\n"
            "3000000,1,2,2,0,0,1,1,,,,,\n");
}

TEST(ObsExport, ReportRendersExactly) {
  EXPECT_EQ(
      render(make_doc(), "report"),
      "eo-metrics report: cores=2 interval=1000us ticks=3 retained=3 "
      "dropped=0\n"
      "watchdog: checks=3 violations=0\n"
      "\n"
      "core  avg_rq  max_rq  avg_sched  avg_vb  avg_skip  run%   on%    \n"
      "----  ------  ------  ---------  ------  --------  -----  -----  \n"
      "0     1.00    1       1.00       0.00    0.00      100.0  100.0  \n"
      "1     2.00    2       2.00       0.00    0.00      100.0  100.0  \n"
      "\n"
      "counters:\n"
      "  sched.context_switches 12\n"
      "  vb.decisions 4\n"
      "gauges:\n"
      "  kern.live_tasks 5\n"
      "histograms:\n"
      "  kern.wakeup_latency_ns count=2 min=100 max=300 mean=200 p50=100 "
      "p95=300 p99=300 p999=300\n");
}

TEST(ObsExport, CsvHasGlobalAndPerCoreRows) {
  const std::string text = render(make_doc(), "csv");
  std::istringstream is(text);
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line.rfind("ts_ns,core,", 0), 0u);
  std::size_t rows = 0, global_rows = 0;
  while (std::getline(is, line)) {
    ++rows;
    if (line.find(",-1,") != std::string::npos) ++global_rows;
  }
  // 3 frames x (1 global + 2 core rows).
  EXPECT_EQ(rows, 9u);
  EXPECT_EQ(global_rows, 3u);
}

TEST(ObsExport, ReportSummarizes) {
  const std::string text = render(make_doc(), "report");
  EXPECT_NE(text.find("eo-metrics report: cores=2"), std::string::npos);
  EXPECT_NE(text.find("watchdog: checks=3 violations=0"), std::string::npos);
  EXPECT_NE(text.find("sched.context_switches 12"), std::string::npos);
  EXPECT_NE(text.find("p999=300"), std::string::npos);
}

TEST(ObsExport, ReportListsViolations) {
  MetricsDoc doc = make_doc();
  doc.watchdog_violations = 1;
  doc.violation_records.push_back({1000, "rq_depth_sum", "sum mismatch"});
  const std::string text = render(doc, "report");
  EXPECT_NE(text.find("VIOLATION"), std::string::npos);
  EXPECT_NE(text.find("rq_depth_sum"), std::string::npos);
}

TEST(ObsExport, ExportToFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/eo_metrics_test.json";
  std::string err;
  ASSERT_TRUE(export_to_file(make_doc(), path, "json", &err)) << err;
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), render(make_doc(), "json"));
  std::remove(path.c_str());
}

TEST(ObsExport, RejectsUnknownFormat) {
  std::string err;
  EXPECT_FALSE(export_to_file(make_doc(), "/tmp/x", "xml", &err));
  EXPECT_NE(err.find("unknown metrics format"), std::string::npos);
}

TEST(ObsExport, ValidatorRejectsWrongSchema) {
  std::string text = render(make_doc(), "json");
  const std::string from = "\"schema\":\"eo-metrics\"";
  text.replace(text.find(from), from.size(), "\"schema\":\"eo-other\"");
  std::string err;
  EXPECT_FALSE(validate_metrics_json(text, &err));
}

TEST(ObsExport, ValidatorRejectsMisalignedCoreSeries) {
  // A core's sample list shorter than the tick list must fail: the two
  // series are meaningful only frame-aligned.
  MetricsDoc doc = make_doc();
  std::string text = render(doc, "json");
  // Drop one core-sample object: find the last sample in the text.
  const std::string sample_marker = "{\"rq\":2,";
  const std::size_t last = text.rfind(sample_marker);
  ASSERT_NE(last, std::string::npos);
  const std::size_t end = text.find('}', last);
  // Also strip the separating comma before the removed object.
  std::size_t begin = last;
  while (begin > 0 && text[begin - 1] != ',') --begin;
  text.erase(begin - 1, end - begin + 2);
  std::string err;
  EXPECT_FALSE(validate_metrics_json(text, &err));
}

TEST(ObsExport, ValidatorRejectsSharedSectionCorruptions) {
  // The counters, histogram and watchdog sections and the schema envelope
  // are the parts eo-metrics shares with eo-metrics-fleet; the fleet test
  // feeds the same corruptions to its validator.
  MetricsDoc doc = make_doc();
  doc.watchdog_violations = 1;
  doc.violation_records.push_back({1000, "rq_depth_sum", "sum mismatch"});
  const std::string text = render(doc, "json");
  std::string err;
  ASSERT_TRUE(validate_metrics_json(text, &err)) << err;
  const std::pair<std::string, std::string> corruptions[] = {
      {R"("name":"sched.context_switches")",
       R"("label":"sched.context_switches")"},          // counter, no name
      {R"("p999":300)", R"("p998":300)"},                // histogram, no p999
      {R"("invariant":"rq_depth_sum")", R"("rule":"rq_depth_sum")"},
      {R"("records":[)", R"("records":{},"was_records":[)"},  // not an array
      {R"("schema_version":1)", R"("schema_version":2)"},
  };
  for (const auto& [from, to] : corruptions) {
    std::string bad = text;
    const auto pos = bad.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    bad.replace(pos, from.size(), to);
    std::string why;
    EXPECT_FALSE(validate_metrics_json(bad, &why)) << from;
    EXPECT_FALSE(why.empty()) << from;
  }
}

TEST(ObsExport, UnwritablePathFailsWithReason) {
  const std::string path = ::testing::TempDir() + "/no_such_dir/m.json";
  std::string err;
  EXPECT_FALSE(export_to_file(make_doc(), path, "json", &err));
  EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

}  // namespace
}  // namespace eo::obs
