// Experiment runner: executes a Sweep's cells across host threads.
//
// The runner expands the grid, applies the `--filter` substring to cell ids,
// and dispatches the surviving cells to `ThreadPool::parallel_for`. Each cell
// writes its outcome into a slot addressed by its stable flat index, so the
// result set is identical for any `--jobs` value. A run that misses its
// simulated-time deadline is retried with the deadline stretched by
// `deadline_factor`, up to `max_attempts` total attempts; the final deadline
// and attempt count are recorded in the outcome.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/sweep.h"
#include "metrics/experiment.h"
#include "obs/progress.h"

namespace eo::exp {

/// What a bench's run function returns for one cell: the simulation result
/// plus named derived values (throughput, latency quantiles, ...) that land
/// in the table and the JSON `extra` block.
struct CellRun {
  metrics::RunResult run;
  /// Derived per-cell values in insertion order (kept stable for JSON).
  std::vector<std::pair<std::string, double>> extra;
  /// Cell exists in the grid but the configuration is meaningless
  /// (e.g. PLE in container mode); never retried, rendered as "-".
  bool not_applicable = false;

  CellRun() = default;
  // Implicit: benches return `run_experiment(...)` directly.
  CellRun(metrics::RunResult r) : run(std::move(r)) {}  // NOLINT

  CellRun& set(const std::string& key, double v) {
    extra.emplace_back(key, v);
    return *this;
  }
  static CellRun na() {
    CellRun c;
    c.not_applicable = true;
    return c;
  }
};

/// One executed (or skipped) cell of the grid.
struct CellOutcome {
  Cell cell;
  metrics::RunResult run;
  std::vector<std::pair<std::string, double>> extra;
  /// Excluded by `--filter`; never executed.
  bool skipped = false;
  bool not_applicable = false;
  /// Number of executions (>1 means deadline retries; 0 if never run).
  int attempts = 0;
  /// Deadline in effect on the last attempt.
  SimTime final_deadline = 0;

  bool ran() const { return !skipped && !not_applicable; }
  double ms() const { return static_cast<double>(run.exec_time) / 1e6; }
  double value(const std::string& key, double def = 0.0) const;
  void set(const std::string& key, double v);
};

struct RunnerOptions {
  /// Host threads for the fan-out; 0 = hardware_concurrency.
  std::size_t jobs = 0;
  /// Substring match against cell ids; empty runs everything.
  std::string filter;
  /// Total attempts per cell (first run + retries) before reporting
  /// the run as incomplete.
  int max_attempts = 3;
  /// Deadline multiplier applied on each retry.
  double deadline_factor = 4.0;
  /// Progress feed (cell started/finished); null runs silently. Benches can
  /// hand the same sink to their fleets for host-level events. Shared: the
  /// runner emits from its worker threads.
  std::shared_ptr<obs::ProgressSink> sink;
};

/// Grid-shaped outcome container, cells in row-major flat order.
class Outcomes {
 public:
  Outcomes() = default;
  Outcomes(std::vector<std::size_t> dims, std::vector<CellOutcome> cells)
      : dims_(std::move(dims)), cells_(std::move(cells)) {}

  const std::vector<std::size_t>& dims() const { return dims_; }
  std::size_t size() const { return cells_.size(); }
  const CellOutcome& operator[](std::size_t flat) const { return cells_[flat]; }
  CellOutcome& operator[](std::size_t flat) { return cells_[flat]; }
  /// Access by coordinate tuple (must match the sweep's axis count).
  const CellOutcome& at(std::initializer_list<std::size_t> idx) const;
  CellOutcome& at(std::initializer_list<std::size_t> idx);

  auto begin() const { return cells_.begin(); }
  auto end() const { return cells_.end(); }
  auto begin() { return cells_.begin(); }
  auto end() { return cells_.end(); }

 private:
  std::size_t flat_of(std::initializer_list<std::size_t> idx) const;

  std::vector<std::size_t> dims_;
  std::vector<CellOutcome> cells_;
};

class ExperimentRunner {
 public:
  /// Executes one cell. `cfg` is the cell's config with the current deadline
  /// (already stretched on retries) — honor `cfg.deadline`, not `cell.cfg`.
  using RunFn =
      std::function<CellRun(const Cell& cell, const metrics::RunConfig& cfg)>;

  ExperimentRunner(Sweep sweep, RunnerOptions opts)
      : sweep_(std::move(sweep)), opts_(std::move(opts)) {}

  const Sweep& sweep() const { return sweep_; }

  /// Prints one cell id per line (the `--list` output).
  void list(std::ostream& os) const;

  /// Runs every non-filtered cell and returns the full grid of outcomes.
  Outcomes run(const RunFn& fn) const;

 private:
  Sweep sweep_;
  RunnerOptions opts_;
};

}  // namespace eo::exp
