// ResultDoc rendering and the eo-bench-result structural validator: a
// runner-produced document must validate and render deterministically; the
// validator must reject documents that drift from the schema.
#include <gtest/gtest.h>

#include <filesystem>

#include "exp/result.h"
#include "exp/runner.h"
#include "exp/sweep.h"

namespace eo {
namespace {

using exp::Cell;
using exp::CellRun;
using exp::ExperimentRunner;
using exp::Outcomes;
using exp::ResultDoc;
using exp::RunnerOptions;
using exp::Sweep;
using exp::validate_result_json;

RunnerOptions quiet() {
  RunnerOptions o;
  o.jobs = 1;
  return o;
}

Sweep demo_sweep() {
  Sweep s("demo");
  s.axis("benchmark", {"hist", "scan"}).axis("threads", {"8T", "32T"});
  return s;
}

Outcomes run_demo(const Sweep& s) {
  return ExperimentRunner(s, quiet())
      .run([](const Cell& cell, const metrics::RunConfig&) {
        if (cell.at(0) == 1 && cell.at(1) == 1) return CellRun::na();
        CellRun r;
        r.run.completed = true;
        r.run.exec_time = static_cast<SimDuration>(1'000'000 * (cell.flat + 1));
        r.run.utilization_percent = 50.0 + static_cast<double>(cell.flat);
        r.set("tput_ops_s", 1e6 / static_cast<double>(cell.flat + 1));
        return r;
      });
}

ResultDoc demo_doc() {
  const Sweep s = demo_sweep();
  ResultDoc doc("demo_bench", 1.0, 7);
  doc.set_meta("git_rev", "0123abcd");  // pin the volatile block
  doc.add_sweep(s, run_demo(s));
  return doc;
}

TEST(ResultTest, RunnerProducedDocumentValidates) {
  std::string err;
  EXPECT_TRUE(validate_result_json(demo_doc().render(), &err)) << err;
}

TEST(ResultTest, RenderIsDeterministic) {
  // Two independently built documents from the same inputs are
  // byte-identical — the property behind same-seed --json reruns.
  EXPECT_EQ(demo_doc().render(), demo_doc().render());
}

TEST(ResultTest, WriteToUnwritablePathFailsWithReason) {
  const std::string path = ::testing::TempDir() + "/no_such_dir/r.json";
  std::string err;
  EXPECT_FALSE(demo_doc().write(path, &err));
  EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

TEST(ResultTest, SkippedAndNaCellsValidate) {
  const Sweep s = demo_sweep();
  RunnerOptions o = quiet();
  o.filter = "hist/";
  const Outcomes out = ExperimentRunner(s, o).run(
      [](const Cell&, const metrics::RunConfig&) {
        CellRun r;
        r.run.completed = true;
        return r;
      });
  ResultDoc doc("demo_bench", 1.0, 7);
  doc.set_meta("git_rev", "0123abcd");
  doc.add_sweep(s, out);
  std::string err;
  EXPECT_TRUE(validate_result_json(doc.render(), &err)) << err;
}

TEST(ResultTest, MultiSweepDocumentValidates) {
  const Sweep a = demo_sweep();
  Sweep b("second");
  b.axis("quantum", {"1us", "2us"});
  const Outcomes out_b = ExperimentRunner(b, quiet())
                             .run([](const Cell&, const metrics::RunConfig&) {
                               CellRun r;
                               r.run.completed = true;
                               return r;
                             });
  ResultDoc doc("demo_bench", 0.5, 3);
  doc.set_meta("git_rev", "0123abcd");
  doc.set_meta("host_note", "shared VM");
  doc.add_sweep(a, run_demo(a));
  doc.add_sweep(b, out_b);
  std::string err;
  EXPECT_TRUE(validate_result_json(doc.render(), &err)) << err;
}

// --- validator reject cases ------------------------------------------------

/// A hand-written minimal valid document; the reject tests mutate it.
std::string minimal_doc(const std::string& schema_name, int version,
                        const std::string& cells) {
  return std::string("{\"schema\":\"") + schema_name +
         "\",\"schema_version\":" + std::to_string(version) +
         ",\"bench\":\"mini\",\"scale\":1,\"seed\":7,"
         "\"meta\":{\"git_rev\":\"abc123\"},"
         "\"sweeps\":[{\"name\":\"s\","
         "\"axes\":[{\"name\":\"a\",\"values\":[\"x\",\"y\"]}],"
         "\"cells\":[" +
         cells + "]}]}";
}

std::string full_cell(const std::string& coord) {
  return std::string("{\"coords\":[\"") + coord +
         "\"],\"completed\":true,\"attempts\":1,\"deadline_ms\":60000,"
         "\"exec_ms\":1.5,\"utilization_percent\":50,\"spin_busy_ms\":0,"
         "\"context_switches\":10,\"migrations_in_node\":0,"
         "\"migrations_cross_node\":0,\"vb_parks\":0,\"wakeup_p50_ns\":0,"
         "\"wakeup_p95_ns\":0,\"wakeup_p99_ns\":0,\"wakeup_count\":0,"
         "\"bwd\":{\"windows\":0,\"tp\":0,\"fp\":0,\"fn\":0,\"tn\":0}}";
}

TEST(ResultValidatorTest, AcceptsMinimalHandWrittenDocument) {
  std::string err;
  const std::string doc = minimal_doc(
      exp::kResultSchemaName, exp::kResultSchemaVersion,
      full_cell("x") + "," + full_cell("y"));
  EXPECT_TRUE(validate_result_json(doc, &err)) << err;
}

TEST(ResultValidatorTest, RejectsMalformedJson) {
  std::string err;
  EXPECT_FALSE(validate_result_json("{\"schema\":", &err));
  EXPECT_FALSE(validate_result_json("", &err));
}

TEST(ResultValidatorTest, RejectsWrongSchemaName) {
  std::string err;
  const std::string doc =
      minimal_doc("bogus-schema", exp::kResultSchemaVersion,
                  full_cell("x") + "," + full_cell("y"));
  EXPECT_FALSE(validate_result_json(doc, &err));
  EXPECT_NE(err.find("schema"), std::string::npos);
}

TEST(ResultValidatorTest, RejectsWrongSchemaVersion) {
  std::string err;
  const std::string doc =
      minimal_doc(exp::kResultSchemaName, exp::kResultSchemaVersion + 1,
                  full_cell("x") + "," + full_cell("y"));
  EXPECT_FALSE(validate_result_json(doc, &err));
  EXPECT_NE(err.find("schema_version"), std::string::npos);
}

TEST(ResultValidatorTest, RejectsCellCountMismatch) {
  std::string err;
  // Two axis values but only one cell.
  const std::string doc = minimal_doc(
      exp::kResultSchemaName, exp::kResultSchemaVersion, full_cell("x"));
  EXPECT_FALSE(validate_result_json(doc, &err));
  EXPECT_NE(err.find("cells"), std::string::npos);
}

TEST(ResultValidatorTest, RejectsCoordOutsideAxisValues) {
  std::string err;
  const std::string doc =
      minimal_doc(exp::kResultSchemaName, exp::kResultSchemaVersion,
                  full_cell("x") + "," + full_cell("z"));
  EXPECT_FALSE(validate_result_json(doc, &err));
  EXPECT_NE(err.find("axis values"), std::string::npos);
}

TEST(ResultValidatorTest, RejectsMissingNumericCellField) {
  std::string cell = full_cell("y");
  const std::size_t pos = cell.find("\"exec_ms\":1.5,");
  ASSERT_NE(pos, std::string::npos);
  cell.erase(pos, std::string("\"exec_ms\":1.5,").size());
  std::string err;
  const std::string doc = minimal_doc(
      exp::kResultSchemaName, exp::kResultSchemaVersion,
      full_cell("x") + "," + cell);
  EXPECT_FALSE(validate_result_json(doc, &err));
  EXPECT_NE(err.find("exec_ms"), std::string::npos);
}

TEST(ResultValidatorTest, RejectsMissingBwdBlock) {
  std::string cell = full_cell("y");
  const std::string bwd =
      ",\"bwd\":{\"windows\":0,\"tp\":0,\"fp\":0,\"fn\":0,\"tn\":0}";
  const std::size_t pos = cell.find(bwd);
  ASSERT_NE(pos, std::string::npos);
  cell.erase(pos, bwd.size());
  std::string err;
  const std::string doc = minimal_doc(
      exp::kResultSchemaName, exp::kResultSchemaVersion,
      full_cell("x") + "," + cell);
  EXPECT_FALSE(validate_result_json(doc, &err));
  EXPECT_NE(err.find("bwd"), std::string::npos);
}

TEST(ResultValidatorTest, RejectsNonNumericExtra) {
  std::string cell = full_cell("y");
  cell.insert(cell.size() - 1, ",\"extra\":{\"note\":\"fast\"}");
  std::string err;
  const std::string doc = minimal_doc(
      exp::kResultSchemaName, exp::kResultSchemaVersion,
      full_cell("x") + "," + cell);
  EXPECT_FALSE(validate_result_json(doc, &err));
  EXPECT_NE(err.find("extra"), std::string::npos);
}

TEST(ResultValidatorTest, RejectsMissingGitRev) {
  const std::string doc =
      "{\"schema\":\"eo-bench-result\",\"schema_version\":1,"
      "\"bench\":\"mini\",\"scale\":1,\"seed\":7,\"meta\":{},"
      "\"sweeps\":[{\"name\":\"s\","
      "\"axes\":[{\"name\":\"a\",\"values\":[\"x\"]}],"
      "\"cells\":[" +
      full_cell("x") + "]}]}";
  std::string err;
  EXPECT_FALSE(validate_result_json(doc, &err));
  EXPECT_NE(err.find("git_rev"), std::string::npos);
}

TEST(ResultValidatorTest, RejectsEmptySweepsAndBadScale) {
  std::string err;
  EXPECT_FALSE(validate_result_json(
      "{\"schema\":\"eo-bench-result\",\"schema_version\":1,"
      "\"bench\":\"mini\",\"scale\":1,\"seed\":7,"
      "\"meta\":{\"git_rev\":\"abc\"},\"sweeps\":[]}",
      &err));
  const std::string bad_scale =
      "{\"schema\":\"eo-bench-result\",\"schema_version\":1,"
      "\"bench\":\"mini\",\"scale\":0,\"seed\":7,"
      "\"meta\":{\"git_rev\":\"abc\"},\"sweeps\":[{\"name\":\"s\","
      "\"axes\":[{\"name\":\"a\",\"values\":[\"x\"]}],\"cells\":[" +
      full_cell("x") + "]}]}";
  EXPECT_FALSE(validate_result_json(bad_scale, &err));
  EXPECT_NE(err.find("scale"), std::string::npos);
}

TEST(ResultTest, GitRevDoesNotDependOnTheWorkingDirectory) {
  const std::string here = exp::current_git_rev();
  if (here == "unknown") {
    GTEST_SKIP() << "git is absent or the sources are not a git checkout";
  }
  EXPECT_EQ(here.size(), 40u);
  const std::filesystem::path cwd = std::filesystem::current_path();
  std::filesystem::current_path(std::filesystem::temp_directory_path());
  const std::string elsewhere = exp::current_git_rev();
  std::filesystem::current_path(cwd);
  EXPECT_EQ(elsewhere, here);
}

}  // namespace
}  // namespace eo
