// The layer ladder: micro-rungs that each time one layer's public calls
// after a warm-up, over repeated trials, and report host ns per item as a
// median with quartiles.
#pragma once

#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct RungResult {
  std::string name;  ///< per-layer metric name, e.g. "sim.fire_ns"
  Quartiles ns;      ///< host ns per item over the trials
  std::size_t trials = 0;
};

/// Runs every rung, splitting `budget_s` between them (each still runs a
/// warm-up and at least five trials). `segment_ns` is the simulated segment
/// length the hw rungs sample.
std::vector<RungResult> run_ladder(double budget_s, double segment_ns);

}  // namespace perfbench
