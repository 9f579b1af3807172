// bench::Cli argument parsing: strict scale/seed/jobs parses (no silent
// coercion of "0.5x" or "abc"), flag gating (--trace* only when the spec
// supports tracing), and defaults from the CliSpec.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/cli.h"

namespace eo {
namespace {

using exp::Cli;
using exp::CliSpec;

CliSpec plain_spec() {
  CliSpec s;
  s.id = "bench_under_test";
  s.summary = "test spec";
  s.default_scale = 0.25;
  s.default_seed = 42;
  return s;
}

CliSpec trace_spec() {
  CliSpec s = plain_spec();
  s.supports_trace = true;
  return s;
}

bool try_parse(std::vector<std::string> args, const CliSpec& spec, Cli* out,
               std::string* err) {
  args.insert(args.begin(), spec.id);
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return Cli::parse_into(static_cast<int>(argv.size()), argv.data(), spec, out,
                         err);
}

TEST(CliTest, DefaultsComeFromSpec) {
  Cli cli;
  std::string err;
  ASSERT_TRUE(try_parse({}, plain_spec(), &cli, &err)) << err;
  EXPECT_DOUBLE_EQ(cli.scale, 0.25);
  EXPECT_EQ(cli.seed, 42u);
  EXPECT_EQ(cli.jobs, 0u);
  EXPECT_TRUE(cli.json_path.empty());
  EXPECT_TRUE(cli.filter.empty());
  EXPECT_FALSE(cli.list);
  EXPECT_FALSE(cli.tracing());
}

TEST(CliTest, ParsesFullFlagSet) {
  Cli cli;
  std::string err;
  ASSERT_TRUE(try_parse({"2.5", "--json=out.json", "--jobs=4",
                         "--filter=ocean/", "--list", "--seed=9"},
                        plain_spec(), &cli, &err))
      << err;
  EXPECT_DOUBLE_EQ(cli.scale, 2.5);
  EXPECT_EQ(cli.json_path, "out.json");
  EXPECT_EQ(cli.jobs, 4u);
  EXPECT_EQ(cli.filter, "ocean/");
  EXPECT_TRUE(cli.list);
  EXPECT_EQ(cli.seed, 9u);
}

TEST(CliTest, RejectsGarbageScale) {
  Cli cli;
  std::string err;
  // The old parse_scale accepted "0.5x" (as 0.5) and ignored "abc" — both
  // must now be hard errors.
  EXPECT_FALSE(try_parse({"0.5x"}, plain_spec(), &cli, &err));
  EXPECT_NE(err.find("invalid scale"), std::string::npos);
  EXPECT_FALSE(try_parse({"abc"}, plain_spec(), &cli, &err));
  EXPECT_NE(err.find("invalid scale"), std::string::npos);
  EXPECT_FALSE(try_parse({"0"}, plain_spec(), &cli, &err));
  EXPECT_FALSE(try_parse({"-1"}, plain_spec(), &cli, &err));
}

TEST(CliTest, RejectsExtraPositional) {
  Cli cli;
  std::string err;
  EXPECT_FALSE(try_parse({"1.0", "2.0"}, plain_spec(), &cli, &err));
  EXPECT_NE(err.find("extra positional"), std::string::npos);
}

TEST(CliTest, RejectsUnknownFlag) {
  Cli cli;
  std::string err;
  EXPECT_FALSE(try_parse({"--bogus"}, plain_spec(), &cli, &err));
  EXPECT_NE(err.find("unknown flag"), std::string::npos);
}

TEST(CliTest, RejectsNonIntegerJobsAndSeed) {
  Cli cli;
  std::string err;
  EXPECT_FALSE(try_parse({"--jobs=two"}, plain_spec(), &cli, &err));
  EXPECT_NE(err.find("--jobs"), std::string::npos);
  EXPECT_FALSE(try_parse({"--jobs=-1"}, plain_spec(), &cli, &err));
  EXPECT_FALSE(try_parse({"--seed=1.5"}, plain_spec(), &cli, &err));
  EXPECT_NE(err.find("--seed"), std::string::npos);
}

TEST(CliTest, RejectsEmptyJsonPath) {
  Cli cli;
  std::string err;
  EXPECT_FALSE(try_parse({"--json="}, plain_spec(), &cli, &err));
  EXPECT_NE(err.find("--json"), std::string::npos);
}

TEST(CliTest, TraceFlagsGatedBySpec) {
  Cli cli;
  std::string err;
  // Not supported: --trace* reads as an unknown flag.
  EXPECT_FALSE(try_parse({"--trace=t.json"}, plain_spec(), &cli, &err));
  EXPECT_NE(err.find("unknown flag"), std::string::npos);
  EXPECT_FALSE(try_parse({"--trace-only"}, plain_spec(), &cli, &err));
  // Supported: parses into the trace fields.
  ASSERT_TRUE(try_parse({"--trace=t.json", "--trace-format=csv",
                         "--trace-only"},
                        trace_spec(), &cli, &err))
      << err;
  EXPECT_TRUE(cli.tracing());
  EXPECT_EQ(cli.trace_path, "t.json");
  EXPECT_EQ(cli.trace_format, "csv");
  EXPECT_TRUE(cli.trace_only);
}

TEST(CliTest, RejectsBadTraceFormat) {
  Cli cli;
  std::string err;
  EXPECT_FALSE(try_parse({"--trace-format=xml"}, trace_spec(), &cli, &err));
  EXPECT_NE(err.find("--trace-format"), std::string::npos);
  EXPECT_FALSE(try_parse({"--trace="}, trace_spec(), &cli, &err));
}

TEST(CliTest, MetricsFlagsParseUniformly) {
  Cli cli;
  std::string err;
  // Defaults: sampling off, 1 ms interval, JSON format.
  ASSERT_TRUE(try_parse({}, plain_spec(), &cli, &err)) << err;
  EXPECT_FALSE(cli.metrics);
  EXPECT_TRUE(cli.metrics_path.empty());
  EXPECT_EQ(cli.metrics_interval_us, 1000u);
  EXPECT_EQ(cli.metrics_format, "json");
  // Bare --metrics samples without exporting a document.
  ASSERT_TRUE(try_parse({"--metrics"}, plain_spec(), &cli, &err)) << err;
  EXPECT_TRUE(cli.metrics);
  EXPECT_TRUE(cli.metrics_path.empty());
  // --metrics=<path> samples and exports; the other knobs ride along.
  ASSERT_TRUE(try_parse({"--metrics=m.json", "--metrics-interval=250",
                         "--metrics-format=csv"},
                        plain_spec(), &cli, &err))
      << err;
  EXPECT_TRUE(cli.metrics);
  EXPECT_EQ(cli.metrics_path, "m.json");
  EXPECT_EQ(cli.metrics_interval_us, 250u);
  EXPECT_EQ(cli.metrics_format, "csv");
  // Unlike --trace, the metrics flags are not gated behind supports_trace:
  // every bench accepts them, including trace-capable ones.
  ASSERT_TRUE(try_parse({"--metrics"}, trace_spec(), &cli, &err)) << err;
  EXPECT_TRUE(cli.metrics);
}

TEST(CliTest, RejectsBadMetricsArguments) {
  Cli cli;
  std::string err;
  EXPECT_FALSE(try_parse({"--metrics="}, plain_spec(), &cli, &err));
  EXPECT_NE(err.find("--metrics"), std::string::npos);
  EXPECT_FALSE(try_parse({"--metrics-interval=0"}, plain_spec(), &cli, &err));
  EXPECT_NE(err.find("--metrics-interval"), std::string::npos);
  EXPECT_FALSE(try_parse({"--metrics-interval=abc"}, plain_spec(), &cli,
                         &err));
  EXPECT_FALSE(try_parse({"--metrics-format=xml"}, plain_spec(), &cli, &err));
  EXPECT_NE(err.find("--metrics-format"), std::string::npos);
}

TEST(CliTest, UsageMentionsMetricsFlags) {
  const std::string plain = Cli::usage(plain_spec());
  EXPECT_NE(plain.find("--metrics"), std::string::npos);
  EXPECT_NE(plain.find("--metrics-interval"), std::string::npos);
  EXPECT_NE(plain.find("--metrics-format"), std::string::npos);
}

TEST(CliTest, RunnerOptionsCarryJobsAndFilter) {
  Cli cli;
  std::string err;
  ASSERT_TRUE(try_parse({"--jobs=3", "--filter=lu"}, plain_spec(), &cli, &err))
      << err;
  const exp::RunnerOptions o = cli.runner_options();
  EXPECT_EQ(o.jobs, 3u);
  EXPECT_EQ(o.filter, "lu");
}

TEST(CliTest, UsageMentionsTraceFlagsOnlyWhenSupported) {
  const std::string plain = Cli::usage(plain_spec());
  const std::string traced = Cli::usage(trace_spec());
  EXPECT_EQ(plain.find("--trace"), std::string::npos);
  EXPECT_NE(traced.find("--trace"), std::string::npos);
  EXPECT_NE(plain.find("--json"), std::string::npos);
}

TEST(CliTest, TaskstatsPathOnlyWhereTheBenchExportsIt) {
  std::string err;
  // Every bench accepts bare --taskstats, which implies --metrics.
  Cli bare;
  ASSERT_TRUE(try_parse({"--taskstats"}, plain_spec(), &bare, &err)) << err;
  EXPECT_TRUE(bare.taskstats);
  EXPECT_TRUE(bare.metrics);
  EXPECT_TRUE(bare.taskstats_path.empty());
  // A path on a bench that writes no folded export is an error, not ignored.
  Cli refused;
  EXPECT_FALSE(try_parse({"--taskstats=x.folded"}, plain_spec(), &refused,
                         &err));
  EXPECT_NE(err.find("--taskstats"), std::string::npos);
  EXPECT_NE(err.find("bench_under_test"), std::string::npos);
  CliSpec exporting = plain_spec();
  exporting.supports_taskstats_export = true;
  Cli accepted;
  ASSERT_TRUE(try_parse({"--taskstats=x.folded"}, exporting, &accepted, &err))
      << err;
  EXPECT_EQ(accepted.taskstats_path, "x.folded");
  // The usage text offers the path only where it is written.
  EXPECT_NE(Cli::usage(exporting).find("--taskstats[=<path>]"),
            std::string::npos);
  EXPECT_EQ(Cli::usage(plain_spec()).find("--taskstats[=<path>]"),
            std::string::npos);
  EXPECT_NE(Cli::usage(plain_spec()).find("--taskstats"), std::string::npos);
}

}  // namespace
}  // namespace eo
