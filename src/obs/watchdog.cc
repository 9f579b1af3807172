#include "obs/watchdog.h"

#include <cstdio>

namespace eo::obs {

void InvariantWatchdog::record(SimTime ts, const char* invariant,
                               std::string detail) {
  ++violations_;
  if (records_.size() < kMaxRecorded) {
    records_.push_back({ts, invariant, std::move(detail)});
  }
}

int InvariantWatchdog::check(SimTime ts, const CoreSample* cores, int n_cores,
                             const GlobalSample& g,
                             const std::uint8_t* changed) {
  ++checks_;
  const std::uint64_t before = violations_;

  if (core_violated_.size() != static_cast<std::size_t>(n_cores)) {
    // First frame (or core count changed): treat every core as suspect.
    core_violated_.assign(static_cast<std::size_t>(n_cores), 1);
  }

  std::int64_t sum_rq = 0;
  std::int64_t sum_parked = 0;
  for (int i = 0; i < n_cores; ++i) {
    const CoreSample& c = cores[i];
    sum_rq += c.rq_depth;
    sum_parked += c.vb_parked;
    // Unchanged sample + clean last frame => provably still clean (the
    // per-core invariants read nothing but this CoreSample).
    if (changed != nullptr && !changed[i] && !core_violated_[i]) continue;
    const std::uint64_t v0 = violations_;
    // The core id is formatted lazily, only when a violation is recorded —
    // this loop is the sampler's per-frame hot path.
    char id[24];
    std::snprintf(id, sizeof(id), "core %d", i);
    if (c.rq_depth < 0 || c.vb_parked < 0 || c.bwd_skipped < 0) {
      record(ts, "core_nonnegative",
             std::string(id) + ": negative rq_depth/vb_parked/bwd_skipped");
    }
    if (c.vb_parked > c.rq_depth) {
      record(ts, "vb_parked_bound",
             std::string(id) + ": vb_parked " + std::to_string(c.vb_parked) +
                 " > rq_depth " + std::to_string(c.rq_depth));
    }
    if (c.schedulable != c.rq_depth - c.vb_parked) {
      record(ts, "schedulable_split",
             std::string(id) + ": schedulable " +
                 std::to_string(c.schedulable) + " != rq_depth " +
                 std::to_string(c.rq_depth) + " - vb_parked " +
                 std::to_string(c.vb_parked));
    }
    // Skip flags live on queued entities only (never on the running one).
    const std::int32_t queued = c.rq_depth - (c.running ? 1 : 0);
    if (c.bwd_skipped > queued) {
      record(ts, "bwd_skipped_bound",
             std::string(id) + ": bwd_skipped " +
                 std::to_string(c.bwd_skipped) + " > queued " +
                 std::to_string(queued));
    }
    if (!c.online && c.rq_depth != 0) {
      record(ts, "offline_core_empty",
             std::string(id) + ": offline with rq_depth " +
                 std::to_string(c.rq_depth));
    }
    core_violated_[i] = violations_ != v0 ? 1 : 0;
  }

  // VB keeps parked tasks on their runqueues, so every runnable-or-running
  // task is on exactly one queue (or one core) and vice versa.
  if (sum_rq != g.tasks_runnable) {
    record(ts, "rq_depth_sum",
           "sum(rq_depth) " + std::to_string(sum_rq) +
               " != runnable-or-running tasks " +
               std::to_string(g.tasks_runnable));
  }
  if (g.live_tasks != g.tasks_runnable + g.tasks_sleeping) {
    record(ts, "live_task_split",
           "live " + std::to_string(g.live_tasks) + " != runnable " +
               std::to_string(g.tasks_runnable) + " + sleeping " +
               std::to_string(g.tasks_sleeping));
  }
  if (g.vb_parks < g.vb_unparks) {
    record(ts, "vb_park_pairing",
           "vb_unparks " + std::to_string(g.vb_unparks) + " > vb_parks " +
               std::to_string(g.vb_parks));
  } else if (sum_parked !=
             static_cast<std::int64_t>(g.vb_parks - g.vb_unparks)) {
    record(ts, "vb_parked_sum",
           "sum(vb_parked) " + std::to_string(sum_parked) +
               " != vb_parks - vb_unparks " +
               std::to_string(g.vb_parks - g.vb_unparks));
  }

  if (registry_ != nullptr) {
    // Values only, into a reused buffer: no strings, no allocation once the
    // buffers have warmed to the registry size. Names are looked up only if
    // a regression must be reported.
    registry_->counter_values(&cur_counters_);
    if (have_prev_counters_ && prev_counters_.size() == cur_counters_.size()) {
      for (std::size_t i = 0; i < cur_counters_.size(); ++i) {
        if (cur_counters_[i] < prev_counters_[i]) {
          record(ts, "counter_monotonic",
                 std::string(registry_->counter_name(i)) + " regressed " +
                     std::to_string(prev_counters_[i]) + " -> " +
                     std::to_string(cur_counters_[i]));
        }
      }
    } else if (have_prev_counters_) {
      record(ts, "counter_set_stable",
             "registered counter count changed mid-run");
    }
    prev_counters_.swap(cur_counters_);
    have_prev_counters_ = true;
  }
  return static_cast<int>(violations_ - before);
}

void InvariantWatchdog::clear() {
  checks_ = 0;
  violations_ = 0;
  records_.clear();
  prev_counters_.clear();
  cur_counters_.clear();
  have_prev_counters_ = false;
  core_violated_.clear();
}

}  // namespace eo::obs
