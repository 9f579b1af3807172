// Kernel-wide scheduling statistics.
//
// These counters back Table 1 (CPU utilization, in-node and cross-node
// migrations) and the BWD accuracy tables, plus diagnostics used throughout
// the tests and benches.
//
// The field list lives in the `EO_SCHED_STATS_FIELDS` X-macro so that the
// struct and the metric-registry bridge can never drift apart: a new counter
// added to the macro appears in both automatically, and a field added to the
// struct directly trips the sizeof static_assert in sched_stats.cc (see
// sched_stats_test).
#pragma once

#include <cstdint>

#include "common/units.h"

namespace eo::obs {
class MetricRegistry;
}

namespace eo::sched {

/// Every SchedStats counter. X(name) per field; all fields are uint64.
#define EO_SCHED_STATS_FIELDS(X) \
  /* Context switching. */       \
  X(context_switches)            \
  X(voluntary_switches)          \
  X(involuntary_switches)        \
  /* Wakeups. */                 \
  X(wakeups)                     \
  X(wakeup_migrations)           \
  /* Load-balancer migrations, split by socket relationship (Table 1). */ \
  X(migrations_in_node)          \
  X(migrations_cross_node)       \
  /* Virtual blocking. */        \
  X(vb_parks)                    \
  X(vb_unparks)                  \
  X(vb_check_quanta)             \
  X(vb_fallback_vanilla)         \
  /* Vanilla sleep/wakeup. */    \
  X(futex_sleeps)                \
  X(epoll_sleeps)                \
  X(futex_wakes)                 \
  /* Busy-waiting detection. */  \
  X(bwd_timer_fires)             \
  X(bwd_detections)              \
  X(bwd_descheduled)             \
  /* Pause-loop exiting (VM mode). */ \
  X(ple_exits)

struct SchedStats {
#define EO_SCHED_STATS_DECL(name) std::uint64_t name = 0;
  EO_SCHED_STATS_FIELDS(EO_SCHED_STATS_DECL)
#undef EO_SCHED_STATS_DECL

  std::uint64_t total_migrations() const {
    return migrations_in_node + migrations_cross_node;
  }

  /// Registers every field as an external counter named "sched.<field>".
  /// `this` must outlive the registry's snapshots.
  void register_metrics(obs::MetricRegistry* reg) const;
};

}  // namespace eo::sched
