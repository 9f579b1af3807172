// The simulated OS kernel.
//
// Owns the event engine, the cores and their scheduler (one
// sched::SchedPolicy running the discipline that KernelConfig::policy names;
// CFS by default), the futex and epoll subsystems, the per-core hardware
// monitoring state (LBR/PMC), and the paper's two mechanisms (virtual
// blocking and busy-waiting detection). It interprets the Actions issued by
// task coroutines, advancing simulated time through engine events.
//
// Threading model: one Kernel instance is strictly single-(host-)threaded.
// Benches run many Kernels concurrently, one per host thread.
#pragma once

#include <coroutine>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/bwd.h"
#include "core/config.h"
#include "core/vb_policy.h"
#include "epollsim/epoll.h"
#include "futex/futex.h"
#include "hw/cache_model.h"
#include "hw/instr_stream.h"
#include "hw/lbr.h"
#include "hw/ple.h"
#include "hw/pmc.h"
#include "hw/topology.h"
#include "kern/klock.h"
#include "kern/task.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/watchdog.h"
#include "sched/cfs.h"
#include "sched/policy.h"
#include "sched/sched_stats.h"
#include "sim/engine.h"
#include "trace/trace.h"

namespace eo::kern {

struct KernelConfig {
  hw::Topology topo = hw::Topology::make_cores(8, 1);
  sched::CfsParams cfs;
  /// Scheduler discipline: one of sched::policy_names() ("cfs", "fifo",
  /// "rr", "pcfs"); see src/sched/README.md.
  std::string policy = "cfs";
  core::Features features;
  core::CostModel costs;
  hw::CacheParams cache;
  hw::TlbParams tlb;
  hw::InstrProfile instr;
  hw::PleParams ple;  ///< `enabled` is overridden from features.ple
  std::uint64_t seed = 0x5eedbeef;
  /// Reference per-thread footprint for compute-rate calibration; 0 means
  /// "use the task's own footprint" (no relative scaling).
  std::uint64_t ref_footprint = 0;
  /// Event tracing (sim-ftrace); disabled by default.
  trace::TraceConfig trace;
  /// Live telemetry sampling (sim-top); disabled by default.
  obs::SamplerConfig metrics;
  /// Export the per-task delay accounting (sim-taskstats) as an
  /// `eo-taskstats` section of the metrics snapshot. The accounting itself
  /// is always maintained when metrics are compiled in (it is pure
  /// bookkeeping and never perturbs the simulation); this flag only gates
  /// the export.
  bool taskstats = false;
};

/// Per-core utilization/diagnostic counters.
struct CoreMetrics {
  SimDuration busy = 0;        ///< any execution (incl. kernel wake chains)
  SimDuration spin_busy = 0;   ///< busy time spent in spin segments
  SimDuration vb_check = 0;    ///< busy time spent in VB flag-check quanta
};

class Kernel {
 public:
  explicit Kernel(KernelConfig cfg);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- configuration access ---
  const KernelConfig& config() const { return cfg_; }
  sim::Engine& engine() { return engine_; }
  SimTime now() const { return engine_.now(); }
  int n_cores() const { return static_cast<int>(cores_.size()); }
  int online_cores() const { return n_online_; }

  // --- task lifecycle (used by the runtime layer) ---
  /// Creates a task; the runtime attaches a coroutine before starting it.
  Task* create_task(std::string name);
  /// Attaches the top-level coroutine (owning handle + initial resume point).
  void attach_coroutine(Task* t, std::coroutine_handle<> top);
  /// Places the task on a runqueue (round-robin if cpu < 0) and makes it
  /// runnable. Must be called once, after attach_coroutine.
  void start_task(Task* t, int cpu = -1);
  /// Pins the task to a core (wakeups and balancing will not move it).
  void pin_task(Task* t, int cpu);

  /// Thread-local current task, set while the kernel resumes a coroutine;
  /// used by the runtime's awaitables.
  static Task* current();

  /// Runs work that takes no simulated time for `t`, which must be the task
  /// being resumed (it is called from inside its coroutine): an atomic on a
  /// word, which charges costs.atomic_op to the task's overhead, leaves the
  /// result in t->action_result and releases running spinners whose
  /// predicate a store made true; or a memory-profile switch.
  void perform_inline(Task* t, const InlineAction& action);

  // --- simulated resources ---
  SimWord* alloc_word(std::uint64_t init = 0);
  int epoll_create();
  /// Injects an event into an epoll instance from outside the simulation
  /// (e.g. the client load generator); wakes a waiter if one is blocked.
  void epoll_post_external(int epfd, std::uint64_t data);

  // --- execution ---
  /// Runs the simulation until `t` (absolute).
  void run_until(SimTime t);
  /// Runs until all started tasks have exited or `deadline` passes.
  /// Returns true if all tasks exited.
  bool run_to_exit(SimTime deadline);
  int live_tasks() const { return live_tasks_; }
  /// Time the last live task exited (valid once live_tasks() == 0); the
  /// workload's true completion time, independent of run chunking.
  SimTime last_exit_time() const { return last_exit_time_; }

  // --- elasticity ---
  /// Brings cores [0, n) online and the rest offline, migrating tasks off
  /// offlined cores (models runtime CPU re-provisioning of a container).
  void set_online_cores(int n);

  // --- tracing ---
  trace::Tracer& tracer() { return tracer_; }
  const trace::Tracer& tracer() const { return tracer_; }
  /// Merged, time-ordered trace with task-name metadata attached.
  trace::Trace snapshot_trace() const;

  // --- live telemetry (src/obs) ---
  const obs::MetricRegistry& metric_registry() const {
    return metric_registry_;
  }
  const obs::Sampler& sampler() const { return sampler_; }
  const obs::InvariantWatchdog& watchdog() const { return watchdog_; }
  /// Registry values, retained time series, and the watchdog verdict, ready
  /// for the obs exporters.
  obs::MetricsDoc snapshot_metrics() const;
  /// Per-task delay accounting snapshot (one record per task, creation
  /// order); open intervals are charged to the current state, so every
  /// record satisfies the conservation invariant at `now()`.
  obs::TaskstatsDoc snapshot_taskstats() const;

  // --- metrics ---
  const sched::SchedStats& stats() const { return stats_; }
  const core::BwdAccuracy& bwd_accuracy() const { return bwd_accuracy_; }
  /// Unblock -> first-run latency of every wakeup (vanilla and VB).
  const Histogram& wakeup_latency() const { return wakeup_latency_; }
  const CoreMetrics& core_metrics(int cpu) const {
    return cores_[static_cast<size_t>(cpu)]->metrics;
  }
  /// Aggregate utilization of online cores since time 0, as a percentage
  /// where each core contributes up to 100 (Table 1 style).
  double cpu_utilization_percent() const;
  SimDuration total_busy() const;
  SimDuration total_spin_busy() const;

  const std::vector<std::unique_ptr<Task>>& tasks() const { return tasks_; }

 private:
  struct Core {
    explicit Core(int id_in) : id(id_in) {}

    int id;
    bool online = true;
    KLock rq_lock;
    Task* current = nullptr;

    /// Pending completion/quantum event for the running task.
    sim::EventId run_event = sim::kInvalidEvent;
    /// A kick (idle wake) is already scheduled.
    bool kick_pending = false;
    /// Wakeup preemption requested while current is non-preemptible.
    bool need_resched = false;
    /// Currently charging a context-switch delay.
    bool in_switch = false;

    /// The task last run, to distinguish real switches from re-picks.
    Task* last_task = nullptr;

    /// Busy-interval accounting: busy_since is valid while busy_valid.
    bool busy_valid = false;
    SimTime busy_since = 0;

    /// Start and SMT speed of the current compute/spin run interval.
    SimTime run_start = 0;
    double run_speed = 1.0;

    /// Execution-segment tracking for LBR/PMC accounting.
    SimTime seg_start = 0;
    hw::SegmentKind seg_kind = hw::SegmentKind::kRegular;
    hw::BranchSite seg_site = hw::kVariedSites;
    bool seg_pause = false;

    hw::LbrState lbr;
    hw::Pmc pmc;
    core::BwdWindowTruth window;
    /// The periodic BWD-monitor and load-balance timers (Kernel::arm_timers);
    /// kInvalidEvent while disarmed (core offline, or BWD off).
    sim::EventId bwd_timer = sim::kInvalidEvent;
    sim::EventId balance_timer = sim::kInvalidEvent;
    Rng rng;

    CoreMetrics metrics;
  };

  /// One asynchronous futex/epoll wake chain (serialized in the waker).
  /// Chains are pooled by the kernel (alloc_chain/release_chain): a wakeup
  /// borrows a chain and the engine events capture a raw pointer, so the
  /// steady state performs no allocation and no atomic refcounting per wake.
  /// Waiters are spliced from the bucket's intrusive list straight onto the
  /// chain's (each Task embeds one WaiterLink), so filling a chain never
  /// touches the heap either. Exactly one engine event per chain is in
  /// flight at a time, and chain events are never canceled, so the kernel
  /// (which outlives its engine events) is the only owner.
  struct WakeChain {
    Task* waker = nullptr;
    int waker_cpu = -1;
    futex::WaiterList waiters;
    std::uint64_t result = 0;
    /// Results were already delivered to the waiters (epoll path).
    bool delivered = false;
  };

  WakeChain* alloc_chain();
  void release_chain(WakeChain* chain);

  // --- scheduling machinery ---
  Core& core(int id) { return *cores_[static_cast<size_t>(id)]; }
  void schedule(Core& c);
  void begin_current(Core& c);
  void resume_step(Core& c, Task* t);
  void setup_compute(Core& c, Task* t, ComputeAction& a);
  void compute_event(Core& c);
  void setup_spin(Core& c, Task* t, SpinUntilAction& a);
  void spin_slice_event(Core& c);
  void spin_exit_event(Task* t, SimWord* w);
  void setup_vb_check(Core& c, Task* t);
  void finish_action(Task* t, std::uint64_t result);
  /// The one transition point of a started task's state: charges the
  /// interval since the last transition to the state being left.
  void set_state(Task* t, obs::TaskDelayState s) {
    t->delay.transition(now(), s);
  }
  /// Cancels the pending run event, accruing compute progress / spinner
  /// registration as appropriate.
  void stop_run(Core& c);
  /// Accounts vruntime/busy/LBR for the running interval ending now, and
  /// removes current from the core (requeue => stays runnable).
  void deschedule_current(Core& c, bool requeue, bool voluntary);
  void account_segment(Core& c);
  /// Charges vruntime/cpu_time for execution since exec_start and restarts
  /// the interval.
  void account_tick(Core& c);
  void set_segment(Core& c, hw::SegmentKind kind, hw::BranchSite site,
                   bool pause);
  void kick(Core& c);
  void maybe_preempt(Core& c, const sched::SchedEntity* wakee);
  void do_preempt(Core& c);
  bool smt_sibling_busy(const Core& c) const;
  double execution_speed(const Core& c) const;
  SimDuration slice_left(Core& c, Task* t) const;

  // --- action handlers ---
  bool handle_futex_wait(Core& c, Task* t, const FutexWaitAction& a);
  bool handle_futex_wake(Core& c, Task* t, const FutexWakeAction& a);
  bool handle_epoll_wait(Core& c, Task* t, const EpollWaitAction& a);
  bool handle_epoll_post(Core& c, Task* t, const EpollPostAction& a);
  /// Blocks `t`, whose link the caller just queued with its vb choice: a VB
  /// waiter parks on its runqueue, any other sleeps off it in `sleep_state`
  /// and counts in `sleeps`. Charges `cost` (the syscall so far) plus the
  /// park or sleep setup, then schedules the core's next task.
  void park_or_sleep(Core& c, Task* t, SimDuration cost,
                     obs::TaskDelayState sleep_state, std::uint64_t& sleeps);
  /// Posts `data` to `ep`: queues it when no task waits; otherwise pops the
  /// oldest waiter, hands it `data` and returns its link (still to be woken).
  futex::WaiterLink* epoll_deliver(epollsim::EpollInstance& ep,
                                   std::uint64_t data);
  void handle_sleep(Core& c, Task* t, const SleepAction& a);
  void handle_exit(Core& c, Task* t);

  // --- wake machinery ---
  /// Launches a chain whose `waiters` the caller filled in place (borrowed
  /// from alloc_chain, so the steady state builds no per-wake vector).
  /// `delivered` marks chains whose waiters already carry their results
  /// (epoll path).
  void start_wake_chain(Core& c, Task* waker, WakeChain* chain,
                        SimDuration initial_cost, bool delivered);
  void wake_chain_step(WakeChain* chain);
  /// Vanilla wakeup of a sleeping task: core selection, enqueue, preempt.
  /// Returns the waker-side cost.
  SimDuration wake_task_vanilla(Task* t);
  /// VB wakeup: clear the flag, restore vruntime. Returns waker-side cost.
  SimDuration wake_task_vb(Task* t);
  int select_wake_cpu(Task* t);
  void notify_spinners(SimWord* word);

  // --- live telemetry ---
  void register_metrics();
  /// Sampler callback: fills one CoreSample per core plus the ground truth.
  void collect_sample(obs::CoreSample* cores, obs::GlobalSample* g) const;

  // --- timers ---
  void arm_timers(Core& c);
  void disarm_timers(Core& c);
  /// Timer bodies; each first emits its kTimerFire record (arg0 0 =
  /// balance, 1 = BWD; arg1 the period).
  void bwd_timer_fire(Core& c);
  void balance_timer_fire(Core& c);
  bool try_balance(Core& c, bool newly_idle);
  void apply_migration(const sched::BalanceDecision& d);
  /// Charges `t`'s move from `src` to `dst`: the in/cross-node counter, the
  /// cache-refill resume penalty, last_cpu, and the kMigration record.
  void charge_migration(Task* t, int src, int dst, bool cross);

  KernelConfig cfg_;
  sim::Engine engine_;
  trace::Tracer tracer_;
  hw::CacheModel cache_;
  hw::InstrStreamModel instr_;
  hw::PleModel ple_;
  core::VbPolicy vb_policy_;
  core::BwdDetector bwd_;
  /// The scheduler (built from cfg_.policy); owns every per-core queue and
  /// all scheduling decisions. The kernel applies the mechanism.
  std::unique_ptr<sched::SchedPolicy> policy_;
  futex::FutexTable futex_;
  epollsim::EpollTable epolls_;

  /// Wake-chain pool: stable storage plus a free list of recycled chains.
  std::deque<WakeChain> chain_storage_;
  std::vector<WakeChain*> chain_free_;

  std::vector<std::unique_ptr<Core>> cores_;
  int n_online_ = 0;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::deque<SimWord> words_;
  int next_tid_ = 1;
  int next_start_cpu_ = 0;
  int live_tasks_ = 0;

  sched::SchedStats stats_;
  core::BwdAccuracy bwd_accuracy_;
  /// Futex and epoll blocking decisions taken ("vb.decisions"): one per
  /// park_or_sleep call.
  std::uint64_t vb_decisions_ = 0;
  obs::MetricRegistry metric_registry_;
  obs::InvariantWatchdog watchdog_;
  obs::Sampler sampler_;
  Histogram wakeup_latency_;
  SimTime last_exit_time_ = 0;
  bool pinned_violation_ = false;
  Rng rng_;

 public:
  /// A pinned task's core went offline (the paper: such programs crashed).
  bool pinned_violation() const { return pinned_violation_; }
};

}  // namespace eo::kern
