// Tests for the metrics layer: table printer and the experiment harness.
#include <gtest/gtest.h>

#include <sstream>

#include "metrics/experiment.h"
#include "metrics/table_printer.h"
#include "runtime/sim_thread.h"

namespace eo::metrics {
namespace {

TEST(TablePrinter, AlignedOutput) {
  std::ostringstream os;
  TablePrinter t({"name", "value"}, os);
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "22"});
  t.print();
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  // Every line in an aligned table has the same column start for "value".
  const auto h = out.find("value");
  ASSERT_NE(h, std::string::npos);
}

TEST(TablePrinter, NumberFormatting) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
  EXPECT_EQ(TablePrinter::integer(-7), "-7");
}

TEST(Experiment, MakeKernelConfigHonorsShape) {
  RunConfig rc;
  rc.cpus = 6;
  rc.sockets = 2;
  rc.smt = true;
  rc.seed = 99;
  rc.ref_footprint = 1_MiB;
  const auto kc = make_kernel_config(rc);
  EXPECT_EQ(kc.topo.n_cores(), 6);
  EXPECT_TRUE(kc.topo.smt_enabled());
  EXPECT_EQ(kc.seed, 99u);
  EXPECT_EQ(kc.ref_footprint, 1_MiB);
}

TEST(Experiment, RunReportsCompletionAndTime) {
  RunConfig rc;
  rc.cpus = 2;
  rc.sockets = 1;
  const auto r = run_experiment(rc, [](kern::Kernel& k) {
    runtime::spawn(k, "t", [](runtime::Env env) -> runtime::SimThread {
      co_await env.compute(3_ms);
      co_return;
    });
  });
  EXPECT_TRUE(r.completed);
  EXPECT_GE(r.exec_time, 3_ms);
  EXPECT_LT(r.exec_time, 4_ms);
}

TEST(Experiment, DeadlineReportsIncomplete) {
  RunConfig rc;
  rc.cpus = 1;
  rc.sockets = 1;
  rc.deadline = 2_ms;
  const auto r = run_experiment(rc, [](kern::Kernel& k) {
    runtime::spawn(k, "t", [](runtime::Env env) -> runtime::SimThread {
      co_await env.compute(100_ms);
      co_return;
    });
  });
  EXPECT_FALSE(r.completed);
  EXPECT_GE(r.exec_time, 2_ms);
}

}  // namespace
}  // namespace eo::metrics
