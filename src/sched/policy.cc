#include "sched/policy.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <string_view>

namespace eo::sched {

namespace {

/// What a tunable gauge reads: the scheduler's effective configuration.
/// `history` is null unless the row predicts.
struct Effective {
  const CfsParams& cfs;
  const QueueTuning& tuning;
  const PickHistory* history;
};

/// How a tunable gauge reads the effective configuration.
using TunableRead = std::int64_t (*)(const Effective&);

/// A tunable gauge: its full registry name ("sched.<policy>.<tunable>",
/// static storage, as the registry requires) and its reader.
struct Tunable {
  const char* name;
  TunableRead read;
};

constexpr TunableRead kSchedLatency = [](const Effective& e) {
  return e.cfs.sched_latency;
};
constexpr TunableRead kMinGranularity = [](const Effective& e) {
  return e.cfs.min_granularity;
};
constexpr TunableRead kWakeupGranularity = [](const Effective& e) {
  return e.cfs.wakeup_granularity;
};
constexpr TunableRead kFixedQuantum = [](const Effective& e) {
  return e.tuning.fixed_quantum;
};
constexpr TunableRead kHistory = [](const Effective& e) {
  return static_cast<std::int64_t>(e.history->history());
};
constexpr TunableRead kTieWindow = [](const Effective& e) {
  return e.history->tie_window();
};
constexpr TunableRead kBalanceInterval = [](const Effective& e) {
  return e.cfs.balance_interval;
};
constexpr TunableRead kBalanceImbalance = [](const Effective& e) {
  return static_cast<std::int64_t>(e.cfs.balance_imbalance);
};

// Every row lists its own tunables, then the balancer's.
#define EO_CFS_TUNABLES(policy)                                   \
  {"sched." policy ".sched_latency_ns", kSchedLatency},           \
      {"sched." policy ".min_granularity_ns", kMinGranularity},   \
      {"sched." policy ".wakeup_granularity_ns", kWakeupGranularity}
#define EO_BALANCE_TUNABLES(policy)                                \
  {"sched." policy ".balance_interval_ns", kBalanceInterval},      \
      {"sched." policy ".balance_imbalance", kBalanceImbalance}

constexpr Tunable kCfsTunables[] = {EO_CFS_TUNABLES("cfs"),
                                    EO_BALANCE_TUNABLES("cfs")};
constexpr Tunable kFifoTunables[] = {{"sched.fifo.slice_ns", kFixedQuantum},
                                     EO_BALANCE_TUNABLES("fifo")};
constexpr Tunable kRrTunables[] = {{"sched.rr.quantum_ns", kFixedQuantum},
                                   EO_BALANCE_TUNABLES("rr")};
constexpr Tunable kPcfsTunables[] = {
    EO_CFS_TUNABLES("pcfs"), {"sched.pcfs.history", kHistory},
    {"sched.pcfs.tie_window_ns", kTieWindow}, EO_BALANCE_TUNABLES("pcfs")};

#undef EO_CFS_TUNABLES
#undef EO_BALANCE_TUNABLES

QueueTuning cfs_tuning(const PolicyParams&) { return QueueTuning{}; }

/// Arrival order, run-to-block: no wakeup preemption; the (long) fifo_slice
/// only bounds how long a CPU hog holds a core before re-evaluation, after
/// which it is re-picked (its key is unchanged), i.e. it keeps running.
QueueTuning fifo_tuning(const PolicyParams& p) {
  QueueTuning t;
  t.arrival_keys = true;
  t.wakeup_preempt = false;
  t.fixed_quantum = p.fifo_slice;
  return t;
}

/// Arrival order with a fixed quantum; an expired entity rotates to the
/// queue tail. No wakeup preemption.
QueueTuning rr_tuning(const PolicyParams& p) {
  QueueTuning t;
  t.arrival_keys = true;
  t.requeue_tail = true;
  t.wakeup_preempt = false;
  t.fixed_quantum = p.rr_quantum;
  return t;
}

}  // namespace

struct PolicyRow {
  const char* name;
  QueueTuning (*tuning)(const PolicyParams&);
  /// Installs a PickHistory as every queue's PickBias.
  bool predicts;
  std::span<const Tunable> tunables;
};

namespace {

/// The registered disciplines, in presentation order. Constant data that
/// allocates nothing, gauge names included.
constexpr PolicyRow kPolicies[] = {
    {"cfs", cfs_tuning, false, kCfsTunables},
    {"fifo", fifo_tuning, false, kFifoTunables},
    {"rr", rr_tuning, false, kRrTunables},
    {"pcfs", cfs_tuning, true, kPcfsTunables},
};

/// Every row's gauge names carry its "sched.<name>." prefix.
constexpr bool tunables_named_after_rows() {
  for (const PolicyRow& row : kPolicies) {
    const std::string_view policy = row.name;
    for (const Tunable& t : row.tunables) {
      std::string_view n = t.name;
      if (!n.starts_with("sched.")) return false;
      n.remove_prefix(6);
      if (!n.starts_with(policy)) return false;
      n.remove_prefix(policy.size());
      if (!n.starts_with('.')) return false;
    }
  }
  return true;
}
static_assert(tunables_named_after_rows());

}  // namespace

// ---------------------------------------------------------------------------
// PickHistory
// ---------------------------------------------------------------------------

PickHistory::PickHistory(int n_cores, int history, SimDuration tie_window)
    : history_(history),
      tie_window_(tie_window),
      picks_(static_cast<std::size_t>(n_cores)) {}

void PickHistory::record(int cpu, std::int32_t tid) {
  std::vector<std::int32_t>& h = picks_[static_cast<std::size_t>(cpu)];
  h.push_back(tid);
  if (h.size() > static_cast<std::size_t>(std::max(2, history_))) {
    h.erase(h.begin());
  }
}

SchedEntity* PickHistory::choose(const Runqueue& rq, SchedEntity* fair) {
  const std::vector<std::int32_t>& h =
      picks_[static_cast<std::size_t>(rq.cpu())];
  if (h.size() < 2) return fair;  // nothing learned yet
  // How often `cand` followed the most recent pick within the window.
  const auto score = [&h](std::int32_t cand) {
    int s = 0;
    for (std::size_t i = 0; i + 1 < h.size(); ++i) {
      if (h[i] == h.back() && h[i + 1] == cand) ++s;
    }
    return s;
  };
  const std::int64_t limit = fair->vruntime + tie_window_;
  SchedEntity* best = fair;
  int best_score = score(fair->tid);
  // Entities are scanned in key order from the fair choice, so ties resolve
  // to the leftmost (the fairest) — deterministic by construction.
  for (SchedEntity* e = rq.next_queued(fair);
       e != nullptr && e->vruntime <= limit; e = rq.next_queued(e)) {
    if (e->vb_blocked || e->bwd_skip) continue;  // uphold VB/BWD contracts
    const int s = score(e->tid);
    if (s > best_score) {
      best = e;
      best_score = s;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// SchedPolicy
// ---------------------------------------------------------------------------

SchedPolicy::SchedPolicy(const PolicyRow& row, const hw::Topology* topo,
                         const CfsParams* cfs, const PolicyParams& params)
    : row_(&row),
      cfs_(cfs),
      tuning_(row.tuning(params)),
      balancer_(topo, cfs, &counters_) {
  const int n = topo->n_cores();
  rq_views_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    rqs_.emplace_back(i, cfs_, &counters_, &tuning_);
    rq_views_.push_back(&rqs_.back());
  }
  if (row.predicts) {
    history_ = std::make_unique<PickHistory>(n, params.predict_history,
                                             params.predict_tie_window);
    for (Runqueue& q : rqs_) q.set_pick_bias(history_.get());
  }
}

SchedPolicy::~SchedPolicy() = default;

const char* SchedPolicy::name() const { return row_->name; }

void SchedPolicy::set_tracer(trace::Tracer* t) {
  for (Runqueue& q : rqs_) q.set_tracer(t);
}

void SchedPolicy::register_metrics(obs::MetricRegistry* reg) const {
  reg->register_counter("sched.rq.enqueues", &counters_.rq_enqueues);
  reg->register_counter("sched.rq.dequeues", &counters_.rq_dequeues);
  reg->register_counter("sched.rq.picks", &counters_.rq_picks);
  reg->register_counter("sched.balance.attempts", &counters_.balance_attempts);
  reg->register_counter("sched.balance.pulls", &counters_.balance_pulls);
  for (const Tunable& t : row_->tunables) {
    reg->register_gauge(t.name, [this, read = t.read] {
      return read(Effective{*cfs_, tuning_, history_.get()});
    });
  }
}

std::unique_ptr<SchedPolicy> make_policy(const std::string& name,
                                         const hw::Topology* topo,
                                         const CfsParams* cfs,
                                         const PolicyParams* params) {
  for (const PolicyRow& row : kPolicies) {
    if (name == row.name) {
      return std::make_unique<SchedPolicy>(row, topo, cfs, *params);
    }
  }
  return nullptr;
}

const std::vector<std::string>& policy_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    names.reserve(std::size(kPolicies));
    for (const PolicyRow& row : kPolicies) names.emplace_back(row.name);
    return names;
  }();
  return kNames;
}

}  // namespace eo::sched
