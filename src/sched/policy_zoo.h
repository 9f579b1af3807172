// The built-in scheduler policies.
//
// All four share one engine: QueueBasedPolicy owns a Runqueue per core plus
// a LoadBalancer, and maps the SchedPolicy interface onto them. A concrete
// policy is therefore just a QueueTuning (the queue discipline) plus
// optional hooks — which is exactly the point of the API: the VB-park and
// BWD-skip mechanics live once, in the engine, and every discipline
// interoperates with them.
//
//  * CfsPolicy           — the reference plugin; byte-identical to the
//                          pre-refactor hard-coded scheduler.
//  * FifoPolicy          — arrival order, run-to-block (SCHED_FIFO-like).
//  * RoundRobinPolicy    — arrival order, fixed quantum, rotate to tail.
//  * PredictiveCfsPolicy — CFS plus a KernelOracle-style per-core last-N
//                          pick-history predictor biasing vruntime
//                          tie-breaks toward the likeliest next task.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "sched/cfs.h"
#include "sched/load_balancer.h"
#include "sched/policy.h"
#include "sched/runqueue.h"

namespace eo::sched {

/// SchedPolicy implemented on per-core Runqueues + a pull LoadBalancer.
/// Subclasses pick the discipline via QueueTuning and may observe picks.
class QueueBasedPolicy : public SchedPolicy {
 public:
  QueueBasedPolicy(const hw::Topology* topo, const CfsParams* cfs,
                   const PolicyParams* params, QueueTuning tuning);

  void attach(const ObsHooks& hooks) override;

  void enqueue(int cpu, SchedEntity* se, bool wakeup) override;
  void dequeue(int cpu, SchedEntity* se) override;
  SchedEntity* pick_next(int cpu) override;
  void put_prev(int cpu, SchedEntity* se) override;
  void account(int cpu, SimDuration delta_exec) override;
  SimDuration slice_for(int cpu, const SchedEntity* se) const override;
  bool should_preempt(int cpu, const SchedEntity* wakee) const override;

  void place_fresh(int cpu, SchedEntity* se) override;
  void place_migrated(int src_cpu, int dst_cpu, SchedEntity* se) override;

  void vb_park(int cpu, SchedEntity* se) override;
  void vb_unpark(int cpu, SchedEntity* se) override;
  void vb_clear_current(int cpu, SchedEntity* se) override;
  void bwd_mark_skip(int cpu, SchedEntity* se) override;

  int nr_running(int cpu) const override;
  int nr_schedulable(int cpu) const override;
  int nr_vb_blocked(int cpu) const override;
  int nr_bwd_skipped(int cpu) const override;

  std::optional<BalanceDecision> balance(int dst_cpu,
                                         FunctionRef<bool(int)> online,
                                         bool newly_idle) override;
  std::vector<SchedEntity*> detach_all(int cpu) override;

  /// Direct queue access for tests and tooling.
  Runqueue& rq(int cpu) { return *rq_views_[static_cast<std::size_t>(cpu)]; }
  const Runqueue& rq(int cpu) const {
    return *rq_views_[static_cast<std::size_t>(cpu)];
  }

 protected:
  /// Called after every successful pick (the predictor's learning signal).
  virtual void on_picked(int cpu, SchedEntity* se) { (void)cpu; (void)se; }

  /// Registers the balancer tunables shared by every queue-based policy.
  void export_balance_tunables(const std::string& prefix,
                               obs::MetricRegistry* reg) const;
  /// "sched.<name>." — the export_tunables prefix for this policy.
  std::string tunable_prefix() const;

  const CfsParams* cfs_;
  const PolicyParams* params_;

 private:
  QueueTuning tuning_;
  std::deque<Runqueue> rqs_;  // deque: stable addresses, Runqueue is unmovable
  /// Runqueue views, built once: `rq()` indexes them (a flat array, not
  /// deque arithmetic, on every pick), and the balancer gets them as is —
  /// balance runs on every newly-idle pick and balance tick, so it must not
  /// allocate.
  std::vector<Runqueue*> rq_views_;
  LoadBalancer balancer_;
};

/// The reference plugin: exactly the pre-refactor CFS-clone scheduler.
class CfsPolicy final : public QueueBasedPolicy {
 public:
  CfsPolicy(const hw::Topology* topo, const CfsParams* cfs,
            const PolicyParams* params)
      : QueueBasedPolicy(topo, cfs, params, QueueTuning{}) {}
  const char* name() const override { return "cfs"; }
  void export_tunables(obs::MetricRegistry* reg) const override;
};

/// Arrival-order, run-to-block. No wakeup preemption; the (long) fifo_slice
/// only bounds how long a CPU hog holds a core before re-evaluation — after
/// which it is re-picked (its key is unchanged), i.e. it keeps running.
class FifoPolicy final : public QueueBasedPolicy {
 public:
  FifoPolicy(const hw::Topology* topo, const CfsParams* cfs,
             const PolicyParams* params);
  const char* name() const override { return "fifo"; }
  void export_tunables(obs::MetricRegistry* reg) const override;
};

/// Arrival-order with a fixed quantum; an expired entity rotates to the
/// queue tail. No wakeup preemption.
class RoundRobinPolicy final : public QueueBasedPolicy {
 public:
  RoundRobinPolicy(const hw::Topology* topo, const CfsParams* cfs,
                   const PolicyParams* params);
  const char* name() const override { return "rr"; }
  void export_tunables(obs::MetricRegistry* reg) const override;
};

/// CFS with a KernelOracle-style next-task predictor: each core remembers
/// its last predict_history picks; when several entities sit within
/// predict_tie_window of the fair choice's vruntime, the one most often
/// observed to follow the previous pick wins the tie-break. Deterministic:
/// strict-majority transition counts, leftmost wins ties.
class PredictiveCfsPolicy final : public QueueBasedPolicy, private PickBias {
 public:
  PredictiveCfsPolicy(const hw::Topology* topo, const CfsParams* cfs,
                      const PolicyParams* params);
  const char* name() const override { return "pcfs"; }
  void export_tunables(obs::MetricRegistry* reg) const override;

 protected:
  void on_picked(int cpu, SchedEntity* se) override;

 private:
  SchedEntity* choose(const Runqueue& rq, SchedEntity* fair) override;

  /// Sliding window of the last N picked tids on one core, oldest first.
  struct History {
    std::vector<std::int32_t> picks;
  };
  /// How often `cand` followed the most recent pick within the window.
  int transition_score(const History& h, std::int32_t cand) const;

  std::vector<History> hist_;
};

}  // namespace eo::sched
