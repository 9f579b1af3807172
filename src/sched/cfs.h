// CFS tunables.
//
// The paper characterizes Linux's completely fair scheduler with a regular
// time slice of 3 ms and a minimum slice of 750 µs before preemption; we use
// exactly those: slice = max(sched_latency / nr_runnable, min_granularity).
#pragma once

#include "common/units.h"

namespace eo::sched {

struct CfsParams {
  /// Targeted scheduling period divided among runnable entities.
  SimDuration sched_latency = 3_ms;
  /// Lower bound on any slice; also the minimum run time before an entity
  /// can be preempted by a waking task.
  SimDuration min_granularity = 750_us;
  /// A waking entity preempts the current one only if its vruntime is at
  /// least this far behind (mirrors sysctl_sched_wakeup_granularity).
  SimDuration wakeup_granularity = 1_ms;
  /// Sleeper fairness: a waking entity's vruntime is floored at
  /// min_vruntime - this bonus (mirrors place_entity's latency credit).
  SimDuration sleeper_bonus = 1500_us;
  /// Periodic load-balance interval per core.
  SimDuration balance_interval = 4_ms;
  /// Imbalance (in runnable tasks) required before pulling.
  int balance_imbalance = 2;
};
// SchedPolicy::register_metrics exports the effective tunables as gauges (the
// /proc/sys/kernel sched_* analogue) under a "sched.<policy>." prefix; which
// ones each discipline exports is listed in the policy table in policy.cc.

}  // namespace eo::sched
