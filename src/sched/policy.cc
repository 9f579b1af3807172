#include "sched/policy.h"

#include <algorithm>
#include <iterator>
#include <span>

namespace eo::sched {

namespace {

/// What a tunable gauge reads: the scheduler's effective configuration.
/// `history` is null unless the row predicts.
struct Effective {
  const CfsParams& cfs;
  const QueueTuning& tuning;
  const PickHistory* history;
};

/// A tunable gauge, registered as "sched.<name>." + `name`.
struct Tunable {
  const char* name;
  std::int64_t (*read)(const Effective&);
};

constexpr Tunable kSchedLatency{
    "sched_latency_ns", [](const Effective& e) { return e.cfs.sched_latency; }};
constexpr Tunable kMinGranularity{
    "min_granularity_ns",
    [](const Effective& e) { return e.cfs.min_granularity; }};
constexpr Tunable kWakeupGranularity{
    "wakeup_granularity_ns",
    [](const Effective& e) { return e.cfs.wakeup_granularity; }};
constexpr auto kFixedQuantum = [](const Effective& e) {
  return e.tuning.fixed_quantum;
};
constexpr Tunable kHistory{"history", [](const Effective& e) {
  return static_cast<std::int64_t>(e.history->history());
}};
constexpr Tunable kTieWindow{
    "tie_window_ns", [](const Effective& e) { return e.history->tie_window(); }};
/// Registered after every row's own tunables.
constexpr Tunable kBalanceTunables[] = {
    {"balance_interval_ns",
     [](const Effective& e) { return e.cfs.balance_interval; }},
    {"balance_imbalance", [](const Effective& e) {
       return static_cast<std::int64_t>(e.cfs.balance_imbalance);
     }}};

constexpr Tunable kCfsTunables[] = {kSchedLatency, kMinGranularity,
                                    kWakeupGranularity};
constexpr Tunable kFifoTunables[] = {{"slice_ns", kFixedQuantum}};
constexpr Tunable kRrTunables[] = {{"quantum_ns", kFixedQuantum}};
constexpr Tunable kPcfsTunables[] = {kSchedLatency, kMinGranularity,
                                     kWakeupGranularity, kHistory, kTieWindow};

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
/// allocates nothing: host timings that follow the heap's trim state (the
/// fleet's connection slab) must not move when a discipline is picked.
constexpr PolicyRow kPolicies[] = {
    {"cfs", cfs_tuning, false, kCfsTunables},
    {"fifo", fifo_tuning, false, kFifoTunables},
    {"rr", rr_tuning, false, kRrTunables},
    {"pcfs", cfs_tuning, true, kPcfsTunables},
};

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
      balancer_(topo, cfs) {
  const int n = topo->n_cores();
  rq_views_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    rqs_.emplace_back(i, cfs_, &tuning_);
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

void SchedPolicy::attach(const ObsHooks& hooks) {
  for (Runqueue& q : rqs_) q.attach(hooks);
  balancer_.attach(hooks);
}

void SchedPolicy::export_tunables(obs::MetricRegistry* reg) const {
  const std::string prefix = std::string("sched.") + row_->name + ".";
  const auto add = [&](const Tunable& t) {
    reg->register_gauge(prefix + t.name, [this, read = t.read] {
      return read(Effective{*cfs_, tuning_, history_.get()});
    });
  };
  for (const Tunable& t : row_->tunables) add(t);
  for (const Tunable& t : kBalanceTunables) add(t);
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
