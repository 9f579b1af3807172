// Per-core runqueue: the queue every scheduler discipline runs on.
//
// Holds runnable entities in a red-black tree keyed by a sort key (vruntime
// under CFS; a monotonic arrival sequence under FIFO disciplines), with the
// running entity kept outside the tree (as in Linux). Implements the
// bookkeeping, slice computation, and the pick-next loop extended with the
// paper's two mechanisms:
//
//  * VB-blocked entities carry an inflated sort key so they sit at the tree
//    tail; pick_next naturally reaches them only when nothing else is
//    runnable, at which point each gets a brief flag-check quantum.
//  * BWD-skipped entities are passed over until every other entity on the
//    queue has been picked at least once since the skip was set.
//
// A QueueTuning selects the queue discipline (one per row of the policy
// table in policy.cc); the default tuning is exactly CFS. A PickBias lets a
// policy overrule the fair choice within its own constraints (pcfs's
// pick-history tie-break).
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "sched/cfs.h"
#include "sched/entity.h"
#include "sched/rbtree.h"
#include "trace/trace.h"

namespace eo::sched {

class Runqueue;

/// The scheduler's counters: one set per SchedPolicy, bumped by each of its
/// Runqueues and its LoadBalancer through a pointer handed over at
/// construction (one kernel is single-host-threaded, so plain adds are
/// safe). SchedPolicy::register_metrics registers them as "sched.rq.*" and
/// "sched.balance.*".
struct SchedCounters {
  std::uint64_t rq_enqueues = 0;
  std::uint64_t rq_dequeues = 0;
  std::uint64_t rq_picks = 0;
  std::uint64_t balance_attempts = 0;
  std::uint64_t balance_pulls = 0;
};

/// Queue-discipline knobs. The defaults reproduce CFS exactly; FIFO-family
/// policies flip them (see the policy table in policy.cc).
struct QueueTuning {
  /// Sort runnable entities by a monotonic per-queue arrival sequence
  /// instead of vruntime (FIFO disciplines). VB parking keeps its inflated
  /// tail keys, and a VB unpark goes to the queue *head* so VB wakers stay
  /// promptly scheduled.
  bool arrival_keys = false;
  /// put_prev re-keys a still-runnable entity to the queue tail (round-robin
  /// rotation) instead of reinserting it at its current key.
  bool requeue_tail = false;
  /// Wakeups may preempt the running entity (the CFS wakeup-granularity
  /// test). FIFO disciplines run entities to the end of their quantum.
  bool wakeup_preempt = true;
  /// When > 0, every slice is this fixed quantum instead of the CFS
  /// latency/nr computation.
  SimDuration fixed_quantum = 0;
};

/// Hook allowing a policy to overrule pick_next's fair choice. The returned
/// entity must be queued on `rq`, schedulable (not VB-blocked), and not
/// BWD-skipped; returning `fair` unchanged is always valid. Only consulted
/// on the normal pick path — never for skip-round expiry or the vacuous
/// all-skipped clear, so the BWD contract stays policy-independent.
class PickBias {
 public:
  virtual ~PickBias() = default;
  virtual SchedEntity* choose(const Runqueue& rq, SchedEntity* fair) = 0;
};

class Runqueue {
 public:
  /// `tuning == nullptr` means the CFS defaults. `params`, `counters` and
  /// `tuning` must outlive the queue.
  Runqueue(int cpu, const CfsParams* params, SchedCounters* counters,
           const QueueTuning* tuning = nullptr)
      : cpu_(cpu),
        params_(params),
        tuning_(tuning ? tuning : &kCfsTuning),
        counters_(counters) {}

  int cpu() const { return cpu_; }

  /// Wires the event tracer (may be null).
  void set_tracer(trace::Tracer* t) { tracer_ = t; }

  /// Installs a pick-next tie-break hook (may be null).
  void set_pick_bias(PickBias* bias) { bias_ = bias; }

  /// Runnable entities including the one currently running and any
  /// VB-blocked parked entities (VB keeps them on the queue — that is the
  /// point: load stays stable).
  int nr_running() const { return nr_running_; }
  /// Entities that are genuinely schedulable (not VB-blocked).
  int nr_schedulable() const { return nr_running_ - nr_vb_blocked_; }
  int nr_vb_blocked() const { return nr_vb_blocked_; }

  std::int64_t min_vruntime() const { return min_vruntime_; }
  SchedEntity* curr() const { return curr_; }

  /// Queued (not current) entities in sort-key order, for PickBias scans.
  SchedEntity* first_queued() const { return tree_.leftmost(); }
  SchedEntity* next_queued(SchedEntity* e) const { return tree_.next(e); }

  /// Adds an entity. If `wakeup`, applies sleeper-fairness placement; a
  /// VB-blocked entity is instead parked at the tail with an inflated key.
  void enqueue(SchedEntity* se, bool wakeup);

  /// Removes an entity (must not be curr; callers put_prev first). Clears
  /// any BWD skip state: the round bookkeeping must not keep counting a
  /// departed entity, and a migrating entity must not carry a stale skip
  /// sequence into another queue's pick counter.
  void dequeue(SchedEntity* se);

  /// Chooses the next entity to run and removes it from the tree, making it
  /// curr. Returns nullptr if nothing is runnable. May clear stale BWD skip
  /// flags. The returned entity may be VB-blocked — the kernel must then run
  /// it only for the brief flag-check quantum.
  SchedEntity* pick_next();

  /// Puts the previously running entity back into the tree (still runnable).
  void put_prev(SchedEntity* se);

  /// Accounts `delta_exec` of execution to curr and advances min_vruntime.
  /// Under arrival keys the sort key is not execution-driven; only the
  /// entity's sum_exec advances.
  void account_curr(SimDuration delta_exec);

  /// Time slice for an entity on this queue.
  SimDuration slice_for(const SchedEntity* se) const;

  /// Should `wakee` preempt the currently running entity?
  bool should_preempt(const SchedEntity* wakee) const;

  /// --- Virtual blocking hooks ---
  /// Parks curr-or-queued `se` as VB-blocked: saves its key, inflates it,
  /// repositions it at the tail. `se` must be on this queue and not curr.
  void vb_park(SchedEntity* se);
  /// Clears VB state and restores the entity near the queue head so it is
  /// scheduled promptly, as the paper's modified scheduler does for threads
  /// waking from virtual blocking.
  void vb_unpark(SchedEntity* se);

  /// Clears VB state of the *currently running* entity (woken mid
  /// flag-check-quantum); no tree manipulation needed.
  void vb_clear_current(SchedEntity* se);

  /// Removes every entity from the queue (core offlining) and returns them.
  /// curr must already have been put back and dequeued by the caller.
  /// BWD skip state is cleared, as in dequeue.
  std::vector<SchedEntity*> detach_all();

  /// --- Busy-waiting detection hooks ---
  /// Marks `se` (on this queue, not curr) as skipped.
  void bwd_mark_skip(SchedEntity* se);

  /// Queued entities currently carrying a BWD skip flag. O(1): the count is
  /// maintained at every flag transition (mark, expiry inside pick_next,
  /// dequeue of a flagged entity), so per-sample telemetry no longer walks
  /// the tree on every core.
  int count_bwd_skipped() const { return nr_bwd_skipped_; }

  /// Picks a migration victim: a queued, non-VB-blocked, non-pinned entity
  /// preferring the tree tail (least likely to run soon). Returns nullptr if
  /// none. Does not remove it.
  SchedEntity* migration_candidate() const;

  /// Test/diagnostic helper: validates the underlying tree.
  bool tree_valid() const { return tree_.validate() >= 0; }

 private:
  static const QueueTuning kCfsTuning;

  void update_min_vruntime();

  int cpu_;
  const CfsParams* params_;
  const QueueTuning* tuning_;
  SchedCounters* counters_;
  trace::Tracer* tracer_ = nullptr;
  PickBias* bias_ = nullptr;
  RbTree<SchedEntity, &SchedEntity::rb, ByVruntime> tree_;
  SchedEntity* curr_ = nullptr;
  std::int64_t min_vruntime_ = 0;
  int nr_running_ = 0;
  int nr_vb_blocked_ = 0;
  int nr_bwd_skipped_ = 0;
  std::uint64_t pick_seq_ = 0;
  /// Monotonic counter ordering VB-parked entities FIFO at the tail.
  std::int64_t vb_park_seq_ = 0;
  /// Arrival-key counters (arrival_keys tuning): tail keys grow upward,
  /// head keys (VB unpark placement) grow downward.
  std::int64_t arrival_seq_ = 0;
  std::int64_t head_seq_ = 0;
};

}  // namespace eo::sched
