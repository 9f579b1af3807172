// The scheduler: the one class between src/kern and src/sched.
//
// The kernel owns the *mechanism* of scheduling (events, context-switch
// costs, wake chains, timers); SchedPolicy owns every *decision*: who runs
// next, for how long, whether a wakeup preempts, and what to pull when
// balancing. It is one Runqueue per core plus a LoadBalancer. The registered
// names ("cfs", "fifo", "rr", "pcfs") are rows of one table in policy.cc:
// each row is a QueueTuning (the queue discipline), a list of tunable gauges
// and, for "pcfs", a PickHistory predictor that biases vruntime tie-breaks.
//
// Every discipline upholds the paper's two mechanism contracts, which live
// once, in Runqueue:
//
//  * VB-park: a VB-blocked entity stays on the queue (load stays stable) but
//    sorts behind all schedulable work; pick_next reaches it only when
//    nothing else is runnable, and then the kernel gives it only a brief
//    flag-check quantum. vb_unpark makes the entity promptly schedulable
//    again.
//  * BWD-skip: an entity marked by busy-waiting detection is passed over by
//    pick_next until the rest of the queue has had a turn (or everyone is
//    skipped, which vacuously completes the round). A skipped entity is
//    never starved.
//
// See src/sched/README.md for the full contract and how to add a discipline.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/function_ref.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "sched/cfs.h"
#include "sched/entity.h"
#include "sched/load_balancer.h"
#include "sched/runqueue.h"

namespace eo::sched {

/// Tunables for the non-CFS disciplines. Kept separate from CfsParams so
/// the CFS knobs stay exactly the paper's characterization.
struct PolicyParams {
  /// Round-robin: fixed quantum every entity runs before rotating to the
  /// queue tail.
  SimDuration rr_quantum = 1_ms;
  /// FIFO: run-to-block discipline; this (long) slice only bounds how long a
  /// CPU-bound entity can hold a core before the kernel re-evaluates.
  SimDuration fifo_slice = 100_ms;
  /// pcfs: picks remembered per core for the transition history.
  int predict_history = 8;
  /// pcfs: a predicted entity may win the tie-break only while its vruntime
  /// is within this window of the fair (CFS) choice.
  SimDuration predict_tie_window = 500_us;
};

/// pcfs's KernelOracle-style next-task predictor: each core remembers its
/// last `history` picks; when several entities sit within `tie_window` of
/// the fair choice's vruntime, the one most often observed to follow the
/// previous pick wins the tie-break. Deterministic: strict-majority
/// transition counts, leftmost wins ties.
class PickHistory final : public PickBias {
 public:
  PickHistory(int n_cores, int history, SimDuration tie_window);

  /// Picks remembered per core, as configured (at least 2 are kept).
  int history() const { return history_; }
  SimDuration tie_window() const { return tie_window_; }

  /// Records `tid` as the latest pick on `cpu` (the learning signal).
  void record(int cpu, std::int32_t tid);

  SchedEntity* choose(const Runqueue& rq, SchedEntity* fair) override;

 private:
  int history_;
  SimDuration tie_window_;
  /// Per core: the last picked tids, oldest first.
  std::vector<std::vector<std::int32_t>> picks_;
};

/// One row of the policy table in policy.cc.
struct PolicyRow;

/// The per-kernel scheduler. All calls are made from the kernel's single
/// host thread; `cpu` always names one of the kernel's cores. Entities are
/// owned by the kernel's tasks and outlive the scheduler's references to
/// them.
class SchedPolicy {
 public:
  /// Builds `row`'s discipline for `topo`'s cores; use make_policy.
  SchedPolicy(const PolicyRow& row, const hw::Topology* topo,
              const CfsParams* cfs, const PolicyParams& params);
  // Not copyable: every Runqueue points at tuning_ and counters_.
  SchedPolicy(const SchedPolicy&) = delete;
  SchedPolicy& operator=(const SchedPolicy&) = delete;
  ~SchedPolicy();

  /// Registry name ("cfs", "fifo", ...); also the --sched= spelling.
  const char* name() const;

  // --- observability registration ---
  /// Wires the event tracer into every runqueue (may be null).
  void set_tracer(trace::Tracer* t);
  /// Registers the queue and balancer counters ("sched.rq.*",
  /// "sched.balance.*"), then the effective tunables as gauges under a
  /// "sched.<name>." prefix, so an exported metrics document records which
  /// scheduler configuration produced it. `this` must outlive `reg`.
  void register_metrics(obs::MetricRegistry* reg) const;

  // --- per-core queue operations ---
  /// Adds a runnable entity. `wakeup` requests wake placement; a VB-blocked
  /// entity is instead parked at the tail per the VB contract.
  void enqueue(int cpu, SchedEntity* se, bool wakeup) {
    rq(cpu).enqueue(se, wakeup);
  }
  /// Removes an entity (must not be the running one; put_prev it first) and
  /// tears down any BWD skip state it carries.
  void dequeue(int cpu, SchedEntity* se) { rq(cpu).dequeue(se); }
  /// Chooses the next entity and makes it current. May return a VB-blocked
  /// entity only when nothing else is schedulable (flag-check quantum).
  SchedEntity* pick_next(int cpu) {
    SchedEntity* se = rq(cpu).pick_next();
    if (se != nullptr && history_ != nullptr) history_->record(cpu, se->tid);
    return se;
  }
  /// Returns the previously running entity to the queue (still runnable).
  void put_prev(int cpu, SchedEntity* se) { rq(cpu).put_prev(se); }
  /// Accounts `delta_exec` of execution to the running entity.
  void account(int cpu, SimDuration delta_exec) {
    rq(cpu).account_curr(delta_exec);
  }
  /// Time slice for an entity on `cpu`'s queue.
  SimDuration slice_for(int cpu, const SchedEntity* se) const {
    return rq(cpu).slice_for(se);
  }
  /// Should `wakee` preempt the entity currently running on `cpu`? True
  /// whenever the core runs a VB flag-check quantum (real work always beats
  /// flag polling).
  bool should_preempt(int cpu, const SchedEntity* wakee) const {
    return rq(cpu).should_preempt(wakee);
  }

  // --- placement ---
  /// Places a fresh (or evicted-and-rehomed) entity on `cpu`: joins the
  /// queue's fairness floor, slightly behind the head, so running entities
  /// are not preempted by a thundering herd of spawns. Under arrival keys
  /// the enqueue assigns the tail key itself.
  void place_fresh(int cpu, SchedEntity* se) {
    se->vruntime = rq(cpu).min_vruntime();
    rq(cpu).enqueue(se, /*wakeup=*/false);
  }
  /// Moves a balance victim (already dequeued from `src_cpu`) onto
  /// `dst_cpu`, translating its key into the destination queue's window (a
  /// no-op position under arrival keys, where enqueue re-keys at the tail).
  void place_migrated(int src_cpu, int dst_cpu, SchedEntity* se) {
    se->vruntime =
        se->vruntime - rq(src_cpu).min_vruntime() + rq(dst_cpu).min_vruntime();
    rq(dst_cpu).enqueue(se, /*wakeup=*/false);
  }

  // --- VB / BWD mechanism hooks ---
  /// Parks a queued (not current) entity as VB-blocked at the queue tail.
  void vb_park(int cpu, SchedEntity* se) { rq(cpu).vb_park(se); }
  /// Clears VB state of a queued entity and makes it promptly schedulable.
  void vb_unpark(int cpu, SchedEntity* se) { rq(cpu).vb_unpark(se); }
  /// Clears VB state of the *currently running* entity (woken mid
  /// flag-check quantum).
  void vb_clear_current(int cpu, SchedEntity* se) {
    rq(cpu).vb_clear_current(se);
  }
  /// Marks a queued (not current) entity as BWD-skipped for one round.
  void bwd_mark_skip(int cpu, SchedEntity* se) { rq(cpu).bwd_mark_skip(se); }

  // --- introspection (sampler / watchdog / wake placement) ---
  /// Runnable entities incl. the running one and VB-parked ones.
  int nr_running(int cpu) const { return rq(cpu).nr_running(); }
  /// Entities genuinely schedulable (not VB-blocked).
  int nr_schedulable(int cpu) const { return rq(cpu).nr_schedulable(); }
  int nr_vb_blocked(int cpu) const { return rq(cpu).nr_vb_blocked(); }
  /// Queued entities currently carrying a BWD skip flag.
  int nr_bwd_skipped(int cpu) const { return rq(cpu).count_bwd_skipped(); }

  // --- balancing / elasticity ---
  /// Decides a pull toward `dst_cpu` (periodic or newly-idle balancing).
  /// `online(i)` says whether core i participates. Returns nullopt when
  /// balanced. The kernel applies the returned decision.
  std::optional<BalanceDecision> balance(int dst_cpu,
                                         FunctionRef<bool(int)> online,
                                         bool newly_idle) {
    return balancer_.find_pull(dst_cpu, rq_views_, online, newly_idle);
  }
  /// Removes every entity from `cpu`'s queue (core offlining) and returns
  /// them; the kernel re-places them on surviving cores.
  std::vector<SchedEntity*> detach_all(int cpu) {
    return rq(cpu).detach_all();
  }

 private:
  Runqueue& rq(int cpu) { return *rq_views_[static_cast<std::size_t>(cpu)]; }
  const Runqueue& rq(int cpu) const {
    return *rq_views_[static_cast<std::size_t>(cpu)];
  }

  // 208 bytes, one object per kernel. Its malloc size class can decide when
  // glibc trims the heap: growing it once moved a host-time reading by ~24%
  // with no change to any timed code, so compare sizes in paired runs.
  const PolicyRow* row_;
  const CfsParams* cfs_;
  QueueTuning tuning_;
  /// Bumped by every Runqueue and the balancer.
  SchedCounters counters_;
  std::deque<Runqueue> rqs_;  // deque: stable addresses, Runqueue is unmovable
  /// Runqueue views, built once: `rq()` indexes them (a flat array, not
  /// deque arithmetic, on every pick), and the balancer gets them as is —
  /// balance runs on every newly-idle pick and balance tick, so it must not
  /// allocate.
  std::vector<Runqueue*> rq_views_;
  LoadBalancer balancer_;
  /// Only under "pcfs"; installed as every queue's PickBias.
  std::unique_ptr<PickHistory> history_;
};

/// Builds the scheduler for registry name `name` on a machine of `topo`'s
/// size; returns nullptr for an unknown name. `topo` and `cfs` must outlive
/// the scheduler; what it needs of `params` is copied.
std::unique_ptr<SchedPolicy> make_policy(const std::string& name,
                                         const hw::Topology* topo,
                                         const CfsParams* cfs,
                                         const PolicyParams* params);

/// Registry names accepted by make_policy, in presentation order.
const std::vector<std::string>& policy_names();

}  // namespace eo::sched
