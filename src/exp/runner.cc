#include "exp/runner.h"

#include <mutex>
#include <ostream>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace eo::exp {

double CellOutcome::value(const std::string& key, double def) const {
  for (const auto& [k, v] : extra) {
    if (k == key) return v;
  }
  return def;
}

void CellOutcome::set(const std::string& key, double v) {
  for (auto& [k, ev] : extra) {
    if (k == key) {
      ev = v;
      return;
    }
  }
  extra.emplace_back(key, v);
}

std::size_t Outcomes::flat_of(std::initializer_list<std::size_t> idx) const {
  EO_CHECK(idx.size() == dims_.size());
  std::size_t flat = 0;
  std::size_t axis = 0;
  for (const std::size_t i : idx) {
    EO_CHECK(i < dims_[axis]);
    flat = flat * dims_[axis] + i;
    ++axis;
  }
  return flat;
}

const CellOutcome& Outcomes::at(std::initializer_list<std::size_t> idx) const {
  return cells_[flat_of(idx)];
}

CellOutcome& Outcomes::at(std::initializer_list<std::size_t> idx) {
  return cells_[flat_of(idx)];
}

void ExperimentRunner::list(std::ostream& os) const {
  for (const Cell& c : sweep_.expand()) {
    const std::string id = c.id();
    if (!opts_.filter.empty() && id.find(opts_.filter) == std::string::npos) {
      continue;
    }
    os << id << "\n";
  }
}

Outcomes ExperimentRunner::run(const RunFn& fn) const {
  std::vector<Cell> cells = sweep_.expand();
  std::vector<CellOutcome> out(cells.size());
  std::vector<std::size_t> active;
  active.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out[i].cell = cells[i];
    const bool match = opts_.filter.empty() ||
                       out[i].cell.id().find(opts_.filter) != std::string::npos;
    if (match) {
      active.push_back(i);
    } else {
      out[i].skipped = true;
    }
  }

  std::mutex done_mu;
  std::size_t done = 0;
  obs::ProgressSink* sink = opts_.sink.get();
  ThreadPool::parallel_for(
      active.size(),
      [&](std::size_t j) {
        CellOutcome& o = out[active[j]];
        if (sink != nullptr) {
          obs::ProgressEvent ev;
          ev.kind = obs::ProgressEvent::Kind::kCellStart;
          ev.label = o.cell.id();
          ev.total = active.size();
          sink->emit(ev);
        }
        metrics::RunConfig cfg = o.cell.cfg;
        CellRun r;
        int attempt = 0;
        for (;;) {
          ++attempt;
          r = fn(o.cell, cfg);
          if (r.not_applicable || r.run.completed ||
              attempt >= opts_.max_attempts) {
            break;
          }
          // Missed the simulated-time deadline: stretch and rerun.
          cfg.deadline = static_cast<SimTime>(
              static_cast<double>(cfg.deadline) * opts_.deadline_factor);
        }
        o.run = std::move(r.run);
        o.extra = std::move(r.extra);
        o.not_applicable = r.not_applicable;
        o.attempts = attempt;
        o.final_deadline = cfg.deadline;
        if (sink != nullptr) {
          obs::ProgressEvent ev;
          ev.kind = obs::ProgressEvent::Kind::kCellFinish;
          ev.label = o.cell.id();
          ev.total = active.size();
          ev.not_applicable = o.not_applicable;
          ev.ok = o.run.completed;
          ev.exec_ms = o.ms();
          ev.attempts = o.attempts;
          // Count and emit under one lock so `done` reaches the feed in
          // order.
          std::lock_guard<std::mutex> lk(done_mu);
          ev.done = ++done;
          sink->emit(ev);
        }
      },
      opts_.jobs);

  return Outcomes(sweep_.dims(), std::move(out));
}

}  // namespace eo::exp
