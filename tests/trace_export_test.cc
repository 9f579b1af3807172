// Exporter tests: the Chrome JSON emitted for a real kernel run passes the
// structural validator, CSV row counts match the event stream, and equal
// seeds render byte-identical files.
#include <gtest/gtest.h>

#include <sstream>

#include "metrics/experiment.h"
#include "trace/export.h"
#include "workloads/suite.h"

namespace eo {
namespace {

using metrics::RunConfig;
using metrics::RunResult;
using metrics::run_experiment;

RunResult traced_run(std::uint64_t seed) {
  const auto& spec = workloads::find_benchmark("cg");
  RunConfig rc;
  rc.cpus = 4;
  rc.sockets = 2;
  rc.seed = seed;
  rc.features = core::Features::optimized();
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

TEST(TraceExport, KernelRunProducesValidChromeJson) {
  const auto r = traced_run(7);
  ASSERT_TRACED(r);
  EXPECT_EQ(r.trace->dropped, 0u);
  const std::string json = trace::render(*r.trace, "json");
  std::string err;
  EXPECT_TRUE(trace::validate_chrome_trace_json(json, &err)) << err;
}

TEST(TraceExport, CsvHasOneRowPerEventPlusHeader) {
  const auto r = traced_run(7);
  ASSERT_TRACED(r);
  const std::string csv = trace::render(*r.trace, "csv");
  std::istringstream is(csv);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) ++lines;
  EXPECT_EQ(lines, r.trace->events.size() + 1);
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "ts_ns,core,kind,kind_name,tid,arg0,arg1");
}

TEST(TraceExport, IdenticalSeedsRenderByteIdentical) {
  const auto a = traced_run(9);
  const auto b = traced_run(9);
  ASSERT_TRACED(a);
  ASSERT_TRUE(b.trace != nullptr);
  EXPECT_EQ(trace::render(*a.trace, "json"), trace::render(*b.trace, "json"));
  EXPECT_EQ(trace::render(*a.trace, "csv"), trace::render(*b.trace, "csv"));
}

TEST(TraceExport, ValidatorAcceptsMinimalEnvelope) {
  std::string err;
  EXPECT_TRUE(trace::validate_chrome_trace_json(
      R"({"traceEvents":[{"name":"x","ph":"i","ts":1.5,"pid":0,"tid":0}]})",
      &err))
      << err;
  EXPECT_TRUE(trace::validate_chrome_trace_json(R"({"traceEvents":[]})", &err))
      << err;
}

TEST(TraceExport, ValidatorRejectsMalformedInput) {
  std::string err;
  // Truncated document.
  EXPECT_FALSE(trace::validate_chrome_trace_json(R"({"traceEvents":[)", &err));
  // Root must be an object with a traceEvents array.
  EXPECT_FALSE(trace::validate_chrome_trace_json(R"([])", &err));
  EXPECT_FALSE(trace::validate_chrome_trace_json(R"({"events":[]})", &err));
  // Event missing its phase.
  EXPECT_FALSE(trace::validate_chrome_trace_json(
      R"({"traceEvents":[{"name":"x","ts":0}]})", &err));
  // Negative timestamp on a non-metadata event.
  EXPECT_FALSE(trace::validate_chrome_trace_json(
      R"({"traceEvents":[{"name":"x","ph":"i","ts":-1}]})", &err));
}

}  // namespace

TEST(TraceExport, UnwritablePathFailsWithReason) {
  const trace::Trace empty;
  const std::string path = ::testing::TempDir() + "/no_such_dir/t.csv";
  std::string err;
  EXPECT_FALSE(trace::export_to_file(empty, path, "csv", &err));
  EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}
}  // namespace eo
