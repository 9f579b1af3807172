// Experiment harness: one simulated machine run, with the paper's standard
// configurations (vanilla / optimized, container / VM, N cores or N
// hyper-threads) expressed declaratively. Benches compose these into sweeps
// and run independent configurations on host threads via ThreadPool.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "common/histogram.h"
#include "core/bwd.h"
#include "core/config.h"
#include "kern/kernel.h"
#include "obs/export.h"
#include "obs/sampler.h"
#include "sched/sched_stats.h"
#include "trace/trace.h"

namespace eo::metrics {

struct RunConfig {
  /// Logical CPUs visible to the container.
  int cpus = 8;
  int sockets = 2;
  /// If true, the CPUs are hyper-thread pairs on cpus/2 physical cores.
  bool smt = false;
  core::Features features;
  core::CostModel costs;
  /// Scheduler discipline (one of sched::policy_names()).
  std::string sched = "cfs";
  std::uint64_t seed = 1;
  /// Simulated-time budget; a workload not finishing by then is reported
  /// as incomplete with exec_time == deadline.
  SimTime deadline = 60_s;
  /// Reference per-thread footprint for compute-rate scaling (0 = off).
  std::uint64_t ref_footprint = 0;
  /// Event tracing; when enabled the result carries the merged trace.
  trace::TraceConfig trace;
  /// Live telemetry; when enabled the result carries the eo-metrics doc.
  obs::SamplerConfig metrics;
  /// Per-task delay accounting export: embed the `eo-taskstats` section in
  /// the metrics doc and carry the standalone snapshot in the result.
  bool taskstats = false;
};

struct RunResult {
  bool completed = false;
  SimDuration exec_time = 0;
  double utilization_percent = 0.0;
  SimDuration spin_busy = 0;
  sched::SchedStats stats;
  core::BwdAccuracy bwd;
  bool pinned_violation = false;
  /// Unblock -> first-run latency distribution (always collected).
  Histogram wakeup_latency;
  /// Merged event trace; null unless cfg.trace.enabled.
  std::shared_ptr<trace::Trace> trace;
  /// Telemetry snapshot; null unless cfg.metrics.enabled.
  std::shared_ptr<obs::MetricsDoc> metrics;
  /// Per-task delay accounting snapshot; null unless cfg.taskstats.
  std::shared_ptr<obs::TaskstatsDoc> taskstats;
};

/// Builds a kernel per `cfg`, lets `setup` spawn the workload, runs to
/// completion (or deadline), and collects the result.
RunResult run_experiment(const RunConfig& cfg,
                         const std::function<void(kern::Kernel&)>& setup);

/// Builds the KernelConfig for a RunConfig (for benches that need to drive
/// the kernel manually, e.g. open-loop servers and elasticity sweeps).
kern::KernelConfig make_kernel_config(const RunConfig& cfg);

}  // namespace eo::metrics
