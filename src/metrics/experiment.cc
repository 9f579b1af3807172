#include "metrics/experiment.h"

#include "common/logging.h"
#include "hw/topology.h"

namespace eo::metrics {

kern::KernelConfig make_kernel_config(const RunConfig& cfg) {
  kern::KernelConfig kc;
  kc.topo = cfg.smt ? hw::Topology::make_smt(cfg.cpus, cfg.sockets)
                    : hw::Topology::make_cores(cfg.cpus, cfg.sockets);
  kc.features = cfg.features;
  kc.costs = cfg.costs;
  kc.policy = cfg.sched;
  kc.seed = cfg.seed;
  kc.ref_footprint = cfg.ref_footprint;
  kc.trace = cfg.trace;
  kc.metrics = cfg.metrics;
  kc.taskstats = cfg.taskstats;
  return kc;
}

RunResult run_experiment(const RunConfig& cfg,
                         const std::function<void(kern::Kernel&)>& setup) {
  kern::Kernel k(make_kernel_config(cfg));
  setup(k);
  RunResult r;
  r.completed = k.run_to_exit(cfg.deadline);
  r.exec_time = r.completed ? k.last_exit_time() : k.now();
  r.utilization_percent = k.cpu_utilization_percent();
  r.spin_busy = k.total_spin_busy();
  r.stats = k.stats();
  r.bwd = k.bwd_accuracy();
  r.pinned_violation = k.pinned_violation();
  r.wakeup_latency = k.wakeup_latency();
  if (k.tracer().enabled()) {
    r.trace = std::make_shared<trace::Trace>(k.snapshot_trace());
  }
  if (k.sampler().enabled()) {
    r.metrics = std::make_shared<obs::MetricsDoc>(k.snapshot_metrics());
  }
  if (cfg.taskstats) {
    r.taskstats = std::make_shared<obs::TaskstatsDoc>(k.snapshot_taskstats());
  }
  return r;
}

}  // namespace eo::metrics
