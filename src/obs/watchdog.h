// Counter-invariant watchdog.
//
// At every sample the watchdog cross-checks the sampled per-core gauges
// against the kernel's own ground truth, the way `TimelineAnalyzer`
// validates traces post-hoc — but live, while the run is still going:
//
//   * Σ per-core rq depth == tasks runnable-or-running (VB keeps parked
//     tasks on their runqueues, so parked tasks are part of both sides);
//   * live tasks == runnable-or-running + sleeping;
//   * Σ per-core VB-parked == vb_parks − vb_unparks;
//   * per-core sanity: 0 <= vb_parked <= rq_depth, schedulable == rq_depth −
//     vb_parked, bwd_skipped never exceeds the queued entities;
//   * every registered counter (the SchedStats fields among them) never
//     regresses between samples.
//
// A violation means a bookkeeping bug in the kernel, not in the workload; a
// clean run must report zero. The checker is pure (state in, verdict out),
// so tests can feed it deliberately corrupted frames.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/metrics.h"
#include "obs/sampler.h"

namespace eo::obs {

struct Violation {
  SimTime ts = 0;
  std::string invariant;  ///< stable short id, e.g. "rq_depth_sum"
  std::string detail;
};

class InvariantWatchdog {
 public:
  /// `registry` supplies the monotonic-counter set; may be null (no
  /// counter is then checked).
  explicit InvariantWatchdog(const MetricRegistry* registry = nullptr)
      : registry_(registry) {}

  /// Checks one frame. Returns the number of violations found in it.
  ///
  /// `changed` (optional, n_cores entries) marks cores whose sample differs
  /// from the previous frame. The per-core invariants are pure functions of
  /// one CoreSample, so a core that is unchanged AND was clean last frame is
  /// provably still clean and its checks are skipped — the sampler passes
  /// the mask so steady-state checking costs O(changed cores). Null checks
  /// every core (the behaviour tests rely on).
  int check(SimTime ts, const CoreSample* cores, int n_cores,
            const GlobalSample& g, const std::uint8_t* changed = nullptr);

  std::uint64_t checks() const { return checks_; }
  std::uint64_t violations() const { return violations_; }
  /// Recorded violations, oldest first (recording caps at kMaxRecorded; the
  /// `violations()` total keeps counting).
  const std::vector<Violation>& records() const { return records_; }

  void clear();

  static constexpr std::size_t kMaxRecorded = 64;

 private:
  void record(SimTime ts, const char* invariant, std::string detail);

  const MetricRegistry* registry_;
  std::uint64_t checks_ = 0;
  std::uint64_t violations_ = 0;
  std::vector<Violation> records_;
  /// Reused counter buffers (swapped each check, so neither reallocates).
  std::vector<std::uint64_t> prev_counters_;
  std::vector<std::uint64_t> cur_counters_;
  bool have_prev_counters_ = false;
  /// Last check's per-core verdict, for the unchanged-core skip.
  std::vector<std::uint8_t> core_violated_;
};

}  // namespace eo::obs
