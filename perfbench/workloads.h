// The benchmark's workloads. One round runs every operation of a workload
// once; an operation is one simulated run (`blocking`, `spin`) or one fleet
// load point (`serve`). Every call into the simulator goes through its public
// API and is timed from outside.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Options {
  std::string workload;  ///< one of workload_names()
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Host threads: blocking/spin operations run on a pool of this size, and
  /// serve passes it to the fleet as FleetConfig.jobs. Results (and the
  /// digest) do not depend on it.
  int jobs = 1;
  /// Workload size multiplier (simulated rounds; fleet hosts for serve).
  double scale = 1.0;
  /// Simulated deadline override in ms (0 = the workload's own).
  double deadline_ms = 0.0;
  /// Directory the traced run writes its spans to (empty = keep in memory).
  std::string spans_dir;
};

const std::vector<std::string>& workload_names();

/// Exact simulated counts of one round. They are read from the simulator's
/// public stats and repeat exactly at a fixed seed.
#define PERFBENCH_COUNTS(X)                                              \
  X(events)            /* engine events fired (blocking, spin) */        \
  X(context_switches)                                                     \
  X(wakeups)                                                              \
  X(migrations)                                                           \
  X(rq_picks)                                                             \
  X(rq_enqueues)                                                          \
  X(balance_attempts)                                                     \
  X(balance_pulls)                                                        \
  X(futex_sleeps)                                                         \
  X(futex_wakes)                                                          \
  X(futex_locks)                                                          \
  X(futex_locks_contended)                                                \
  X(epoll_locks)                                                          \
  X(epoll_locks_contended)                                                \
  X(vb_parks)                                                             \
  X(vb_check_quanta)                                                      \
  X(busy_ns)           /* summed core busy time (blocking, spin) */       \
  X(vb_check_ns)       /* busy time in VB flag-check quanta */            \
  X(bwd_windows)                                                          \
  X(bwd_descheduled)                                                      \
  X(bwd_tp)                                                               \
  X(bwd_fp)                                                               \
  X(requests)          /* serve: arrivals in the measurement window */    \
  X(completed)                                                            \
  X(shed)                                                                 \
  X(sampler_ticks)                                                        \
  X(watchdog_checks)                                                      \
  X(fleet_hosts)       /* host documents merged into fleet documents */

struct LayerCounts {
#define PERFBENCH_COUNT_DECL(name) std::uint64_t name = 0;
  PERFBENCH_COUNTS(PERFBENCH_COUNT_DECL)
#undef PERFBENCH_COUNT_DECL

  void merge(const LayerCounts& o);
  bool operator==(const LayerCounts& o) const;
};

/// Host seconds of single calls beyond the simulation itself, one entry per
/// call (traced rounds only).
struct LayerTimes {
  std::vector<double> kernel_ctor_s;  ///< kern::Kernel constructor
  /// workloads::spawn_benchmark; on serve, ServeHost construction + start
  /// (which spawns the host's workers).
  std::vector<double> spawn_s;
  std::vector<double> fleet_ctor_s;  ///< traffic::ConnectionFleet constructor
  std::vector<double> snapshot_s;    ///< telemetry snapshot + render + validate
  /// One simulated serve host, between the progress sink's host start and
  /// finish (or the probe host's run).
  std::vector<double> host_run_s;

  void append(const LayerTimes& o);
};

struct RoundResult {
  /// Host seconds in the simulation calls (run_to_exit, ConnectionFleet::run).
  double wall_s = 0.0;
  /// Per operation, in operation order: seconds in the simulation calls, and
  /// seconds building kernels, spawning, constructing fleets.
  std::vector<double> op_wall_s;
  std::vector<double> op_setup_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< "<operation>: <reason>"
  /// Digest of every simulated result of the round, in operation order.
  std::uint64_t digest = 0;
  LayerCounts counts;
  LayerTimes times;
  /// Host ns per engine event and per request of the serve-host probe
  /// (traced rounds only; see run_round).
  double probe_ns_per_event = 0.0;
  double probe_ns_per_request = 0.0;
  /// Mean simulated length of one on-CPU stretch (busy time per context
  /// switch; for serve, the mean request cost): the segment length the hw
  /// rungs sample.
  double segment_ns = 0.0;
};

/// Runs one round. `spans` non-null makes it a traced round: every call is
/// recorded as a span, serve attaches a progress sink for per-host spans,
/// and layer counts are collected. A traced round also simulates one serve
/// host itself (the fleet keeps its host kernels private): that probe gives
/// the layer times a workload lacks, kernel/spawn/engine values on serve
/// and traffic/obs values on blocking and spin. It counts as one more
/// operation but enters neither the round's times, counts nor digest.
RoundResult run_round(const Options& opt, SpanLog* spans);

}  // namespace perfbench
