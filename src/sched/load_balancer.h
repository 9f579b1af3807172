// NUMA-aware pull load balancer (policy only).
//
// Mirrors the structure of CFS load balancing that matters for the paper:
// periodic per-core balancing plus newly-idle balancing, preferring pulls
// within the socket before crossing sockets, triggered by an imbalance in
// runnable-task counts. The *mechanism* (dequeue/enqueue, penalties, stats)
// is applied by the kernel; this class only decides what to pull, so it can
// be unit-tested in isolation.
//
// Interaction with the paper's findings: under vanilla blocking, sleepers
// leave the runqueue, so the per-core load a balancer sees fluctuates wildly
// and triggers excessive migrations (Table 1). Under VB, blocked threads
// remain counted, loads stay flat, and almost no balancing triggers.
#pragma once

#include <optional>
#include <vector>

#include "common/function_ref.h"
#include "hw/topology.h"
#include "sched/cfs.h"
#include "sched/runqueue.h"

namespace eo::sched {

/// What a balance pass decided to migrate. The balancer decides; the kernel
/// applies the mechanism (dequeue/enqueue via place_migrated, penalties,
/// stats).
struct BalanceDecision {
  int src_cpu = -1;
  int dst_cpu = -1;
  SchedEntity* victim = nullptr;
  bool cross_socket = false;
};

class LoadBalancer {
 public:
  /// Every find_pull bumps `counters->balance_attempts`, and a decided pull
  /// `balance_pulls`. All three pointers must outlive the balancer.
  LoadBalancer(const hw::Topology* topo, const CfsParams* params,
               SchedCounters* counters)
      : topo_(topo), params_(params), counters_(counters) {}

  /// Finds a task to pull to `dst_cpu`. `rqs[i]` is core i's runqueue;
  /// `online(i)` says whether core i participates. `newly_idle` lowers the
  /// imbalance threshold to 1, as CFS does for idle balancing. The online
  /// predicate is a non-owning FunctionRef: this runs on every periodic and
  /// newly-idle balance, and must not touch std::function machinery.
  std::optional<BalanceDecision> find_pull(int dst_cpu,
                                           const std::vector<Runqueue*>& rqs,
                                           FunctionRef<bool(int)> online,
                                           bool newly_idle) const;

 private:
  std::optional<BalanceDecision> find_pull_in(
      int dst_cpu, const std::vector<Runqueue*>& rqs,
      FunctionRef<bool(int)> online, bool same_socket_only,
      int threshold) const;

  const hw::Topology* topo_;
  const CfsParams* params_;
  SchedCounters* counters_;
};

}  // namespace eo::sched
