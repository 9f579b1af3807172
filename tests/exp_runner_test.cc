// ExperimentRunner semantics: stable cell ordering independent of --jobs,
// an in-order progress count, substring filtering, not-applicable cells, and
// the bounded retry-at-longer-deadline loop for runs that miss their
// simulated deadline.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "exp/runner.h"
#include "exp/sweep.h"

namespace eo {
namespace {

using exp::Cell;
using exp::CellOutcome;
using exp::CellRun;
using exp::ExperimentRunner;
using exp::Outcomes;
using exp::RunnerOptions;
using exp::Sweep;

RunnerOptions quiet(std::size_t jobs = 1) {
  RunnerOptions o;
  o.jobs = jobs;
  return o;
}

Sweep small_grid() {
  Sweep s("grid");
  s.axis("a", {"a0", "a1"}).axis("b", {"b0", "b1", "b2"});
  return s;
}

// Deterministic synthetic run keyed on the cell's coordinates.
CellRun synthetic(const Cell& cell) {
  CellRun r;
  r.run.completed = true;
  r.run.exec_time = static_cast<SimDuration>(1000 * (cell.flat + 1));
  r.set("flat", static_cast<double>(cell.flat));
  return r;
}

TEST(RunnerTest, OutcomesLandAtStableFlatIndices) {
  ExperimentRunner runner(small_grid(), quiet());
  const Outcomes out =
      runner.run([](const Cell& cell, const metrics::RunConfig&) {
        return synthetic(cell);
      });
  ASSERT_EQ(out.size(), 6u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].cell.flat, i);
    EXPECT_TRUE(out[i].ran());
    EXPECT_EQ(out[i].value("flat"), static_cast<double>(i));
    EXPECT_EQ(out[i].attempts, 1);
  }
  EXPECT_EQ(out.at({1, 2}).cell.id(), "a1/b2");
}

TEST(RunnerTest, JobsOneAndJobsManyProduceIdenticalCells) {
  auto fn = [](const Cell& cell, const metrics::RunConfig&) {
    return synthetic(cell);
  };
  const Outcomes seq = ExperimentRunner(small_grid(), quiet(1)).run(fn);
  const Outcomes par = ExperimentRunner(small_grid(), quiet(4)).run(fn);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].cell.id(), par[i].cell.id());
    EXPECT_EQ(seq[i].run.exec_time, par[i].run.exec_time);
    EXPECT_EQ(seq[i].extra, par[i].extra);
    EXPECT_EQ(seq[i].attempts, par[i].attempts);
  }
}

TEST(RunnerTest, CellFinishCountsReachTheSinkInOrder) {
  // Cells finish concurrently, but the feed's `[n/m]` counter must arrive
  // at the sink as 1, 2, ..., m.
  struct Recorder : obs::ProgressSink {
    std::mutex mu;
    std::vector<std::size_t> done;
    void emit(const obs::ProgressEvent& ev) override {
      if (ev.kind != obs::ProgressEvent::Kind::kCellFinish) return;
      std::lock_guard<std::mutex> lk(mu);
      done.push_back(ev.done);
    }
  };
  auto rec = std::make_shared<Recorder>();
  RunnerOptions o = quiet(4);
  o.sink = rec;
  ExperimentRunner(small_grid(), o)
      .run([](const Cell& cell, const metrics::RunConfig&) {
        return synthetic(cell);
      });
  ASSERT_EQ(rec->done.size(), 6u);
  for (std::size_t i = 0; i < rec->done.size(); ++i) {
    EXPECT_EQ(rec->done[i], i + 1);
  }
}

TEST(RunnerTest, FilterSkipsNonMatchingCellsWithoutRunningThem) {
  RunnerOptions o = quiet();
  o.filter = "a1/";
  std::atomic<int> calls{0};
  const Outcomes out = ExperimentRunner(small_grid(), o)
                           .run([&](const Cell& cell,
                                    const metrics::RunConfig&) {
                             ++calls;
                             return synthetic(cell);
                           });
  EXPECT_EQ(calls.load(), 3);
  ASSERT_EQ(out.size(), 6u);
  for (const CellOutcome& c : out) {
    const bool matches = c.cell.id().find("a1/") != std::string::npos;
    EXPECT_EQ(c.skipped, !matches);
    EXPECT_EQ(c.ran(), matches);
    EXPECT_EQ(c.attempts, matches ? 1 : 0);
  }
}

TEST(RunnerTest, NotApplicableCellsAreNeverRetried) {
  std::atomic<int> calls{0};
  const Outcomes out =
      ExperimentRunner(small_grid(), quiet())
          .run([&](const Cell& cell, const metrics::RunConfig&) {
            ++calls;
            // a0×b1 is a meaningless configuration.
            if (cell.at(0) == 0 && cell.at(1) == 1) return CellRun::na();
            return synthetic(cell);
          });
  EXPECT_EQ(calls.load(), 6);  // one call per cell, no retries
  EXPECT_TRUE(out.at({0, 1}).not_applicable);
  EXPECT_FALSE(out.at({0, 1}).ran());
  EXPECT_EQ(out.at({0, 1}).attempts, 1);
  EXPECT_TRUE(out.at({0, 0}).ran());
}

TEST(RunnerTest, DeadlineMissRetriesWithStretchedDeadline) {
  metrics::RunConfig base;
  base.deadline = 1000;
  Sweep s("retry");
  s.base(base).axis("cell", {"only"});
  RunnerOptions o = quiet();
  o.max_attempts = 3;
  o.deadline_factor = 4.0;
  std::vector<SimTime> seen_deadlines;
  const Outcomes out = ExperimentRunner(s, o).run(
      [&](const Cell&, const metrics::RunConfig& cfg) {
        seen_deadlines.push_back(cfg.deadline);
        CellRun r;
        // The workload needs 3000 simulated ns: misses the first deadline,
        // completes once the runner stretches it.
        r.run.completed = cfg.deadline >= 3000;
        r.run.exec_time = r.run.completed ? 3000 : cfg.deadline;
        return r;
      });
  ASSERT_EQ(seen_deadlines.size(), 2u);
  EXPECT_EQ(seen_deadlines[0], 1000u);
  EXPECT_EQ(seen_deadlines[1], 4000u);
  const CellOutcome& c = out.at({0});
  EXPECT_TRUE(c.run.completed);
  EXPECT_EQ(c.attempts, 2);
  EXPECT_EQ(c.final_deadline, 4000u);
}

TEST(RunnerTest, RetriesAreBoundedByMaxAttempts) {
  metrics::RunConfig base;
  base.deadline = 1000;
  Sweep s("hopeless");
  s.base(base).axis("cell", {"only"});
  RunnerOptions o = quiet();
  o.max_attempts = 3;
  o.deadline_factor = 4.0;
  std::atomic<int> calls{0};
  const Outcomes out = ExperimentRunner(s, o).run(
      [&](const Cell&, const metrics::RunConfig& cfg) {
        ++calls;
        CellRun r;
        r.run.completed = false;  // never finishes
        r.run.exec_time = cfg.deadline;
        return r;
      });
  EXPECT_EQ(calls.load(), 3);
  const CellOutcome& c = out.at({0});
  EXPECT_FALSE(c.run.completed);
  EXPECT_EQ(c.attempts, 3);
  EXPECT_EQ(c.final_deadline, 16000u);  // stretched twice: 1000 → 4000 → 16000
}

TEST(RunnerTest, ListPrintsFilteredCellIds) {
  RunnerOptions o = quiet();
  o.filter = "b2";
  std::ostringstream os;
  ExperimentRunner(small_grid(), o).list(os);
  EXPECT_EQ(os.str(), "a0/b2\na1/b2\n");
}

}  // namespace
}  // namespace eo
