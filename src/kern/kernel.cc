#include "kern/kernel.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace eo::kern {

namespace {
thread_local Task* g_current_task = nullptr;

Task* task_of(sched::SchedEntity* se) { return static_cast<Task*>(se->task); }
}  // namespace

Kernel::Kernel(KernelConfig cfg)
    : cfg_(std::move(cfg)),
      tracer_(&engine_, cfg_.topo.n_cores(), cfg_.trace),
      cache_(cfg_.cache, cfg_.tlb),
      instr_(cfg_.instr),
      ple_([&] {
        hw::PleParams p = cfg_.ple;
        p.enabled = cfg_.features.ple && cfg_.features.mode == core::ExecMode::kVm;
        return p;
      }()),
      vb_policy_(&cfg_.features),
      bwd_(&cfg_.features),
      watchdog_(&metric_registry_),
      sampler_(&engine_, cfg_.topo.n_cores()),
      rng_(cfg_.seed) {
  // The PMC model turns these rates into integer counts and window miss
  // sums on every segment; a NaN, infinite or negative rate, or a spin
  // iteration time that is not positive, would make that conversion
  // undefined or the window's miss chance meaningless.
  const hw::InstrProfile& ip = cfg_.instr;
  for (const double rate : {ip.instr_per_us, ip.l1_miss_per_instr,
                            ip.tlb_miss_per_instr, ip.spin_stray_miss_prob}) {
    EO_CHECK(std::isfinite(rate) && rate >= 0.0)
        << "instruction-stream rates must be finite and non-negative, got "
        << rate;
  }
  EO_CHECK(std::isfinite(ip.spin_iteration_ns) && ip.spin_iteration_ns > 0.0)
      << "spin_iteration_ns must be finite and positive, got "
      << ip.spin_iteration_ns;
  const int n = cfg_.topo.n_cores();
  const sched::PolicyParams params;  // read only while the policy is built
  policy_ = sched::make_policy(cfg_.policy, &cfg_.topo, &cfg_.cfs, &params);
  EO_CHECK(policy_ != nullptr)
      << "unknown scheduler policy '" << cfg_.policy << "'";
  cores_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    cores_.push_back(std::make_unique<Core>(i));
    cores_.back()->rng = rng_.split();
  }
  n_online_ = n;
  futex_.locks().set_tracer(&tracer_);
  epolls_.locks().set_tracer(&tracer_);
  vb_policy_.set_tracer(&tracer_);
  bwd_.set_tracer(&tracer_);
  policy_->set_tracer(&tracer_);
  for (int i = 0; i < n; ++i) arm_timers(core(i));
  register_metrics();
  sampler_.start(
      cfg_.metrics,
      [this](obs::CoreSample* cs, obs::GlobalSample* g) {
        collect_sample(cs, g);
      },
      &watchdog_);
}

Kernel::~Kernel() = default;

Task* Kernel::current() { return g_current_task; }

// ---------------------------------------------------------------------------
// Task lifecycle
// ---------------------------------------------------------------------------

Task* Kernel::create_task(std::string name) {
  tasks_.push_back(std::make_unique<Task>(next_tid_++, std::move(name)));
  return tasks_.back().get();
}

void Kernel::attach_coroutine(Task* t, std::coroutine_handle<> top) {
  EO_CHECK(!t->top) << "coroutine already attached";
  t->top = top;
  t->resume_point = top;
}

void Kernel::start_task(Task* t, int cpu) {
  EO_CHECK(!t->delay.started());
  EO_CHECK(t->top) << "start_task before attach_coroutine";
  if (cpu < 0) {
    // Round-robin over online cores.
    do {
      cpu = next_start_cpu_;
      next_start_cpu_ = (next_start_cpu_ + 1) % n_cores();
    } while (!core(cpu).online);
  }
  EO_CHECK(core(cpu).online);
  t->delay.start(now(), obs::TaskDelayState::kRunnable);
  t->last_cpu = cpu;
  ++live_tasks_;
  Core& c = core(cpu);
  EO_TRACE_EVENT(&tracer_, cpu, trace::EventKind::kTaskStart, t->tid,
                 static_cast<std::uint64_t>(cpu), 0);
  policy_->place_fresh(cpu, &t->se);
  if (c.current == nullptr) {
    kick(c);
  }
}

void Kernel::pin_task(Task* t, int cpu) {
  EO_CHECK(cpu >= 0 && cpu < n_cores());
  t->pinned = true;
  t->pin_cpu = cpu;
  t->se.pinned = true;
}

SimWord* Kernel::alloc_word(std::uint64_t init) {
  words_.emplace_back();
  words_.back().value_ = init;
  words_.back().id_ = static_cast<std::uint64_t>(words_.size());
  return &words_.back();
}

int Kernel::epoll_create() { return epolls_.create(); }

// ---------------------------------------------------------------------------
// Execution control
// ---------------------------------------------------------------------------

void Kernel::run_until(SimTime t) { engine_.run_until(t); }

bool Kernel::run_to_exit(SimTime deadline) {
  // Chunked so we can stop as soon as every task exits (the periodic timers
  // would otherwise keep the event queue non-empty forever).
  while (live_tasks_ > 0 && now() < deadline) {
    const SimTime next = std::min<SimTime>(now() + 5_ms, deadline);
    engine_.run_until(next);
  }
  return live_tasks_ == 0;
}

void Kernel::set_online_cores(int n) {
  EO_CHECK(n >= 1 && n <= n_cores());
  // Bring cores online first so eviction targets exist.
  for (int i = 0; i < n; ++i) {
    Core& c = core(i);
    if (c.online) continue;
    c.online = true;
    arm_timers(c);
  }
  n_online_ = 0;
  for (int i = 0; i < n_cores(); ++i) {
    if (i < n) ++n_online_;
  }
  for (int i = n; i < n_cores(); ++i) {
    Core& c = core(i);
    if (!c.online) continue;
    if (c.current != nullptr && c.current->in_kernel) {
      // Mid wake-chain; retry shortly rather than corrupting the chain.
      const int target = n;
      engine_.schedule_after(200_us, [this, target] {
        if (n_online_ <= target) set_online_cores(target);
      });
      continue;
    }
    c.online = false;
    disarm_timers(c);
    if (c.run_event != sim::kInvalidEvent) {
      // Stop whatever is running and requeue it.
      stop_run(c);
    }
    if (c.current != nullptr) {
      deschedule_current(c, /*requeue=*/true, /*voluntary=*/false);
    }
    if (c.busy_valid) {
      c.metrics.busy += now() - c.busy_since;
      c.busy_valid = false;
    }
    // Evict every queued entity to online cores, round-robin.
    auto evicted = policy_->detach_all(c.id);
    int rr = 0;
    for (sched::SchedEntity* se : evicted) {
      Task* t = task_of(se);
      int dst = -1;
      for (int k = 0; k < n_online_; ++k) {
        const int cand = (rr + k) % n_online_;
        if (core(cand).online) {
          dst = cand;
          break;
        }
      }
      rr = (dst + 1) % std::max(1, n_online_);
      EO_CHECK_GE(dst, 0);
      Core& d = core(dst);
      if (t->pinned && t->pin_cpu == c.id) pinned_violation_ = true;
      charge_migration(t, c.id, dst, !cfg_.topo.same_socket(c.id, d.id));
      // Rehome at the destination's fairness floor, like a fresh arrival.
      policy_->place_fresh(dst, se);
      // Post-migration queue wait is attributed to kMigrating until the
      // task first runs at the destination; VB-parked evictees keep their
      // park attribution (they are not waiting for the CPU).
      if (!se->vb_blocked) set_state(t, obs::TaskDelayState::kMigrating);
      kick(d);
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

double Kernel::cpu_utilization_percent() const {
  const SimDuration wall = now();
  if (wall <= 0) return 0.0;
  double busy = 0;
  for (const auto& cp : cores_) {
    busy += static_cast<double>(cp->metrics.busy);
    if (cp->busy_valid) busy += static_cast<double>(now() - cp->busy_since);
  }
  return busy / static_cast<double>(wall) * 100.0;
}

SimDuration Kernel::total_busy() const {
  SimDuration b = 0;
  for (const auto& cp : cores_) {
    b += cp->metrics.busy;
    if (cp->busy_valid) b += now() - cp->busy_since;
  }
  return b;
}

SimDuration Kernel::total_spin_busy() const {
  SimDuration b = 0;
  for (const auto& cp : cores_) b += cp->metrics.spin_busy;
  return b;
}

trace::Trace Kernel::snapshot_trace() const {
  trace::Trace tr = tracer_.snapshot();
  tr.task_names.reserve(tasks_.size());
  for (const auto& tp : tasks_) {
    tr.task_names.emplace_back(tp->tid, tp->name);
  }
  return tr;
}

// ---------------------------------------------------------------------------
// Live telemetry (src/obs)
// ---------------------------------------------------------------------------

void Kernel::register_metrics() {
  obs::MetricRegistry& r = metric_registry_;
  // Counters register in subsystem order; registration order is the export
  // order, so keep it stable.
  stats_.register_metrics(&r);
  policy_->register_metrics(&r);
  // Each pair registers its subset before its total: that is the order every
  // exported document has carried, so it stays. The VB choices and the BWD
  // windows are SchedStats cells under a second name.
  r.register_counter("futex.bucket_locks_contended", &futex_.locks().contended);
  r.register_counter("futex.bucket_locks", &futex_.locks().locks);
  r.register_counter("epoll.instance_locks_contended",
                     &epolls_.locks().contended);
  r.register_counter("epoll.instance_locks", &epolls_.locks().locks);
  r.register_counter("vb.chose_vb", &stats_.vb_parks);
  r.register_counter("vb.decisions", &vb_decisions_);
  r.register_counter("bwd.windows_detected", &stats_.bwd_detections);
  r.register_counter("bwd.windows_evaluated", &stats_.bwd_timer_fires);
  r.register_counter("bwd.truth_windows", &bwd_accuracy_.windows);
  r.register_counter("bwd.truth_tp", &bwd_accuracy_.tp);
  r.register_counter("bwd.truth_fp", &bwd_accuracy_.fp);
  r.register_counter("bwd.truth_fn", &bwd_accuracy_.fn);
  r.register_counter("bwd.truth_tn", &bwd_accuracy_.tn);
  r.register_gauge("kern.live_tasks",
                   [this] { return static_cast<std::int64_t>(live_tasks_); });
  r.register_gauge("kern.online_cores",
                   [this] { return static_cast<std::int64_t>(n_online_); });
  r.register_histogram("kern.wakeup_latency_ns", &wakeup_latency_);
}

void Kernel::collect_sample(obs::CoreSample* cores,
                            obs::GlobalSample* g) const {
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    const Core& c = *cores_[i];
    obs::CoreSample& s = cores[i];
    s.rq_depth = policy_->nr_running(c.id);
    s.schedulable = policy_->nr_schedulable(c.id);
    s.vb_parked = policy_->nr_vb_blocked(c.id);
    s.bwd_skipped = policy_->nr_bwd_skipped(c.id);
    s.running = c.current != nullptr ? 1 : 0;
    s.online = c.online ? 1 : 0;
  }
  g->live_tasks = live_tasks_;
  g->online_cores = n_online_;
  g->tasks_runnable = 0;
  g->tasks_sleeping = 0;
  for (const auto& tp : tasks_) {
    if (tp->blocked()) {
      ++g->tasks_sleeping;
    } else if (tp->delay.alive()) {
      ++g->tasks_runnable;
    }
  }
  g->context_switches = stats_.context_switches;
  g->wakeups = stats_.wakeups;
  g->migrations = stats_.total_migrations();
  g->vb_parks = stats_.vb_parks;
  g->vb_unparks = stats_.vb_unparks;
}

obs::MetricsDoc Kernel::snapshot_metrics() const {
  obs::MetricsDoc doc;
  doc.n_cores = n_cores();
  doc.interval = sampler_.interval();
  doc.ticks = sampler_.ticks();
  doc.dropped_ticks = sampler_.series().dropped();
  doc.counters = metric_registry_.snapshot_counters();
  doc.gauges = metric_registry_.snapshot_gauges();
  for (const auto& h : metric_registry_.histograms()) {
    doc.histograms.push_back(obs::summarize_histogram(h.name, *h.hist));
  }
  sampler_.series().copy_ordered(&doc.tick_series, &doc.core_series);
  doc.watchdog_checks = watchdog_.checks();
  doc.watchdog_violations = watchdog_.violations();
  doc.violation_records = watchdog_.records();
  if (cfg_.taskstats) {
    doc.taskstats =
        std::make_shared<obs::TaskstatsDoc>(snapshot_taskstats());
  }
  return doc;
}

obs::TaskstatsDoc Kernel::snapshot_taskstats() const {
  obs::TaskstatsDoc doc;
  doc.tasks.reserve(tasks_.size());
  for (const auto& tp : tasks_) {
    const Task& t = *tp;
    if (!t.delay.started()) continue;
    obs::TaskstatsRecord r;
    r.tid = static_cast<std::uint64_t>(t.tid);
    r.name = t.name;
    r.finished = t.delay.finished();
    r.lifetime = t.delay.lifetime(now());
    r.times = t.delay.snapshot(now());
    doc.tasks.push_back(std::move(r));
  }
  return doc;
}

// ---------------------------------------------------------------------------
// Segment / busy accounting
// ---------------------------------------------------------------------------

void Kernel::account_segment(Core& c) {
  const SimTime t = now();
  if (c.current == nullptr) {
    c.seg_start = t;
    return;
  }
  const SimDuration dur = t - c.seg_start;
  c.seg_start = t;
  if (dur <= 0) return;
  // LBR/PMC/window state feeds only bwd_timer_fire, whose timer runs only
  // when features.bwd is on, so with BWD off the whole block is skipped.
  // The segment adds its instructions and expected misses to the window
  // without drawing; bwd_timer_fire draws the window's miss presence once,
  // from c.rng, which has no other consumer.
  if (cfg_.features.bwd) {
    instr_.accumulate(c.seg_kind, dur, &c.pmc);
    c.lbr.on_execute(c.seg_kind, c.seg_site, dur, instr_);
    c.window.busy += dur;
    if (c.seg_kind == hw::SegmentKind::kSpin) {
      c.window.spin += dur;
      if (c.window.dominant_site == hw::kVariedSites) {
        c.window.dominant_site = c.seg_site;
      } else if (c.window.dominant_site != c.seg_site) {
        c.window.multiple_spin_sites = true;
      }
    }
  }
  if (c.seg_kind == hw::SegmentKind::kSpin) {
    c.metrics.spin_busy += dur;
    if (ple_.enabled() && c.seg_pause) {
      const auto exits = ple_.exits_for(dur);
      stats_.ple_exits += exits;
      if (auto* a = std::get_if<SpinUntilAction>(&c.current->pending)) {
        a->ple_overhead += ple_.overhead_for(dur);
      }
    }
  }
}

void Kernel::set_segment(Core& c, hw::SegmentKind kind, hw::BranchSite site,
                         bool pause) {
  account_segment(c);
  c.seg_kind = kind;
  c.seg_site = site;
  c.seg_pause = pause;
}

void Kernel::account_tick(Core& c) {
  Task* t = c.current;
  EO_CHECK(t != nullptr);
  SimDuration ran = now() - t->se.exec_start;
  if (ran < 0) ran = 0;
  policy_->account(c.id, ran + t->overhead);
  t->overhead = 0;
  t->stats.cpu_time += ran;
  t->se.exec_start = now();
}

// ---------------------------------------------------------------------------
// Core scheduling
// ---------------------------------------------------------------------------

bool Kernel::smt_sibling_busy(const Core& c) const {
  if (!cfg_.topo.smt_enabled()) return false;
  const int sib = cfg_.topo.smt_sibling(c.id);
  if (sib < 0) return false;
  const Core& s = *cores_[static_cast<size_t>(sib)];
  return s.current != nullptr;
}

double Kernel::execution_speed(const Core& c) const {
  return smt_sibling_busy(c) ? hw::kSmtBusySiblingFactor : 1.0;
}

SimDuration Kernel::slice_left(Core& c, Task* t) const {
  const SimDuration slice = policy_->slice_for(c.id, &t->se);
  return slice - (now() - t->se.exec_start);
}

void Kernel::kick(Core& c) {
  if (!c.online || c.kick_pending || c.current != nullptr || c.in_switch) {
    return;
  }
  c.kick_pending = true;
  engine_.schedule_after(cfg_.costs.idle_kick, [this, &c] {
    c.kick_pending = false;
    if (c.online && c.current == nullptr && !c.in_switch) schedule(c);
  });
}

void Kernel::schedule(Core& c) {
  EO_CHECK(c.current == nullptr);
  EO_CHECK(!c.in_switch);
  if (!c.online) return;
  c.need_resched = false;

  sched::SchedEntity* se = policy_->pick_next(c.id);
  if (se == nullptr) {
    // Newly idle: try to pull work before idling.
    if (try_balance(c, /*newly_idle=*/true)) se = policy_->pick_next(c.id);
  }
  if (se == nullptr) {
    if (c.busy_valid) {
      c.metrics.busy += now() - c.busy_since;
      c.busy_valid = false;
    }
    account_segment(c);  // resets seg_start
    return;
  }
  Task* t = task_of(se);
  if (!c.busy_valid) {
    c.busy_valid = true;
    c.busy_since = now();
  }

  SimDuration cost = cfg_.costs.sched_pick;
  const bool real_switch = (t != c.last_task);
  if (real_switch) {
    cost += cfg_.costs.context_switch;
    ++stats_.context_switches;
    // Charge the resuming thread's cache-refill penalty based on what ran
    // in between (approximated by the previous occupant's working set).
    // Only compute phases repay a cold cache: a thread resuming into a spin
    // loop or a VB flag-check quantum touches one line and must not
    // accumulate refill debt. The penalty does not stack across repeated
    // switch-ins either — the cache is only cold once — so it combines by
    // max, not sum.
    if (c.last_task != nullptr && !c.last_task->exited() &&
        t->mem.working_set > 0 && !t->se.vb_blocked &&
        !std::holds_alternative<SpinUntilAction>(t->pending)) {
      const SimDuration pen = cache_.switch_penalty(
          t->mem.pattern, t->mem.working_set, c.last_task->mem.working_set);
      t->resume_penalty = std::max(t->resume_penalty, pen);
    }
  }
  EO_TRACE_EVENT(&tracer_, c.id, trace::EventKind::kSwitchIn, t->tid,
                 static_cast<std::uint64_t>(t->se.vruntime),
                 real_switch ? 1u : 0u);
  c.last_task = t;
  c.current = t;
  // Time on a core is on-CPU time, including the switch-in cost below and VB
  // flag-check quanta — the paper's direct oversubscription cost.
  set_state(t, obs::TaskDelayState::kOncpu);
  t->last_cpu = c.id;
  c.in_switch = true;
  set_segment(c, hw::SegmentKind::kRegular, hw::kVariedSites, false);
  c.run_event = engine_.schedule_after(cost, [this, &c] {
    c.run_event = sim::kInvalidEvent;
    c.in_switch = false;
    Task* cur = c.current;
    EO_CHECK(cur != nullptr);
    cur->se.exec_start = now();
    begin_current(c);
  });
}

void Kernel::begin_current(Core& c) {
  Task* t = c.current;
  EO_CHECK(t != nullptr);

  if (c.need_resched && !t->se.vb_blocked) {
    // A better candidate woke during the switch; go around again.
    deschedule_current(c, /*requeue=*/true, /*voluntary=*/false);
    schedule(c);
    return;
  }
  c.need_resched = false;

  if (t->se.vb_blocked) {
    setup_vb_check(c, t);
    return;
  }

  if (t->runnable_since >= 0) {
    // First real run after an unblock: the paper's wakeup latency.
    const SimDuration lat = now() - t->runnable_since;
    t->runnable_since = -1;
    wakeup_latency_.add(lat);
    EO_TRACE_EVENT(&tracer_, c.id, trace::EventKind::kRunAfterWake, t->tid,
                   static_cast<std::uint64_t>(lat), 0);
  }

  if (std::holds_alternative<std::monostate>(t->pending)) {
    resume_step(c, t);
    return;
  }
  if (auto* a = std::get_if<ComputeAction>(&t->pending)) {
    setup_compute(c, t, *a);
    return;
  }
  if (auto* a = std::get_if<SpinUntilAction>(&t->pending)) {
    if (a->pred(a->word->value_)) {
      t->overhead += cfg_.costs.spin_check + a->ple_overhead;
      finish_action(t, 1);
      resume_step(c, t);
    } else {
      setup_spin(c, t, *a);
    }
    return;
  }
  EO_CHECK(false) << "task " << t->name << " scheduled with pending action it"
                  << " cannot resume (index " << t->pending.index() << ")";
}

void Kernel::resume_step(Core& c, Task* t) {
  for (;;) {
    EO_CHECK_EQ(c.current, t);
    EO_CHECK(std::holds_alternative<std::monostate>(t->pending));
    g_current_task = t;
    t->resume_point.resume();
    g_current_task = nullptr;

    if (auto* a = std::get_if<ComputeAction>(&t->pending)) {
      // Convert work duration to wall time once, using the task's memory
      // profile at issue time.
      if (a->remaining_wall < 0) {
        double factor = 1.0;
        if (cfg_.ref_footprint > 0 && t->mem.working_set > 0) {
          factor = cache_.compute_rate_factor(t->mem, t->mem.working_set,
                                              cfg_.ref_footprint);
        }
        a->remaining_wall = static_cast<SimDuration>(
            std::ceil(static_cast<double>(a->duration) * factor));
        if (a->remaining_wall < 1) a->remaining_wall = 1;
      }
      setup_compute(c, t, *a);
      return;
    }
    if (auto* a = std::get_if<SpinUntilAction>(&t->pending)) {
      if (a->pred(a->word->value_)) {
        t->overhead += cfg_.costs.spin_check;
        finish_action(t, 1);
        continue;
      }
      setup_spin(c, t, *a);
      return;
    }
    if (auto* a = std::get_if<FutexWaitAction>(&t->pending)) {
      if (handle_futex_wait(c, t, *a)) continue;
      return;
    }
    if (auto* a = std::get_if<FutexWakeAction>(&t->pending)) {
      if (handle_futex_wake(c, t, *a)) continue;
      return;
    }
    if (auto* a = std::get_if<EpollWaitAction>(&t->pending)) {
      if (handle_epoll_wait(c, t, *a)) continue;
      return;
    }
    if (auto* a = std::get_if<EpollPostAction>(&t->pending)) {
      if (handle_epoll_post(c, t, *a)) continue;
      return;
    }
    if (std::holds_alternative<YieldAction>(t->pending)) {
      finish_action(t, 0);
      deschedule_current(c, /*requeue=*/true, /*voluntary=*/true);
      schedule(c);
      return;
    }
    if (auto* a = std::get_if<SleepAction>(&t->pending)) {
      handle_sleep(c, t, *a);
      return;
    }
    if (std::holds_alternative<ExitAction>(t->pending)) {
      handle_exit(c, t);
      return;
    }
    EO_CHECK(false) << "unhandled action index " << t->pending.index()
                    << " task=" << t->name
                    << " state=" << obs::to_string(t->delay.state())
                    << " now=" << now();
  }
}

void Kernel::finish_action(Task* t, std::uint64_t result) {
  t->action_result = result;
  t->pending = std::monostate{};
}

// ---------------------------------------------------------------------------
// Compute / spin execution
// ---------------------------------------------------------------------------

void Kernel::setup_compute(Core& c, Task* t, ComputeAction& a) {
  EO_CHECK_GE(a.remaining_wall, 0);
  if (t->resume_penalty > 0) {
    a.remaining_wall += t->resume_penalty;
    t->resume_penalty = 0;
  }
  const SimDuration sl = slice_left(c, t);
  if (sl <= 0) {
    // Every expiry goes back through the scheduler; a task alone on the
    // queue is simply picked again (no slice renewal in place).
    deschedule_current(c, /*requeue=*/true, /*voluntary=*/false);
    schedule(c);
    return;
  }
  const double speed = execution_speed(c);
  const auto need = static_cast<SimDuration>(
      std::ceil(static_cast<double>(a.remaining_wall) / speed));
  const SimDuration run_for = std::min(need, sl);
  set_segment(c, a.kind, a.site, false);
  c.run_start = now();
  c.run_speed = speed;
  c.run_event =
      engine_.schedule_after(run_for, [this, &c] { compute_event(c); });
}

void Kernel::compute_event(Core& c) {
  c.run_event = sim::kInvalidEvent;
  Task* t = c.current;
  EO_CHECK(t != nullptr);
  auto* a = std::get_if<ComputeAction>(&t->pending);
  EO_CHECK(a != nullptr);
  const SimDuration elapsed = now() - c.run_start;
  a->remaining_wall -= static_cast<SimDuration>(
      static_cast<double>(elapsed) * c.run_speed + 0.5);
  if (a->remaining_wall <= 0) {
    set_segment(c, hw::SegmentKind::kRegular, hw::kVariedSites, false);
    finish_action(t, 0);
    resume_step(c, t);
    return;
  }
  // Slice expired mid-compute.
  deschedule_current(c, /*requeue=*/true, /*voluntary=*/false);
  schedule(c);
}

void Kernel::setup_spin(Core& c, Task* t, SpinUntilAction& a) {
  // Spinning touches a single cached line; any accumulated refill penalty is
  // meaningless for it and must not leak into later compute.
  t->resume_penalty = 0;
  if (a.deadline >= 0 && now() >= a.deadline) {
    // Spin budget exhausted (possibly while descheduled).
    t->overhead += cfg_.costs.spin_check;
    finish_action(t, 0);
    resume_step(c, t);
    return;
  }
  SimDuration sl = slice_left(c, t);
  if (sl <= 0) {
    deschedule_current(c, /*requeue=*/true, /*voluntary=*/false);
    schedule(c);
    return;
  }
  if (a.deadline >= 0) sl = std::min(sl, a.deadline - now());
  set_segment(c, hw::SegmentKind::kSpin, a.site, a.uses_pause);
  a.exit_scheduled = false;
  // Not already listed: every path that stops the spin on this core
  // (stop_run, spin_exit_event, the timeout) removes the task.
  a.word->running_spinners_.push_back(t);
  c.run_start = now();
  c.run_speed = 1.0;
  c.run_event =
      engine_.schedule_after(sl, [this, &c] { spin_slice_event(c); });
}

void Kernel::spin_slice_event(Core& c) {
  c.run_event = sim::kInvalidEvent;
  Task* t = c.current;
  EO_CHECK(t != nullptr);
  auto* a = std::get_if<SpinUntilAction>(&t->pending);
  EO_CHECK(a != nullptr);
  if (a->exit_scheduled) return;  // an exit is imminent; let it fire
  if (a->deadline >= 0 && now() >= a->deadline) {
    // Timed out: stop spinning and report failure.
    account_segment(c);
    set_segment(c, hw::SegmentKind::kRegular, hw::kVariedSites, false);
    auto& spinners = a->word->running_spinners_;
    spinners.erase(std::remove(spinners.begin(), spinners.end(), t),
                   spinners.end());
    t->overhead += cfg_.costs.spin_check;
    finish_action(t, 0);
    resume_step(c, t);
    return;
  }
  deschedule_current(c, /*requeue=*/true, /*voluntary=*/false);
  schedule(c);
}

void Kernel::notify_spinners(SimWord* word) {
  // Exits only get scheduled here; spin_exit_event leaves the list later.
  for (Task* t : word->running_spinners_) {
    auto* a = std::get_if<SpinUntilAction>(&t->pending);
    if (a == nullptr || a->exit_scheduled) continue;
    if (a->pred(word->value_)) {
      a->exit_scheduled = true;
      SimWord* w = word;
      engine_.schedule_after(cfg_.costs.spin_observe,
                             [this, t, w] { spin_exit_event(t, w); });
    }
  }
}

void Kernel::spin_exit_event(Task* t, SimWord* w) {
  if (!t->running()) return;
  auto* a = std::get_if<SpinUntilAction>(&t->pending);
  if (a == nullptr || !a->exit_scheduled) return;
  EO_CHECK_GE(t->se.cpu, 0);
  Core& c = core(t->se.cpu);
  if (c.current != t) return;
  if (c.run_event != sim::kInvalidEvent) {
    engine_.cancel(c.run_event);
    c.run_event = sim::kInvalidEvent;
  }
  set_segment(c, hw::SegmentKind::kRegular, hw::kVariedSites, false);
  auto& spinners = w->running_spinners_;
  spinners.erase(std::remove(spinners.begin(), spinners.end(), t),
                 spinners.end());
  t->overhead += cfg_.costs.spin_check + a->ple_overhead;
  finish_action(t, 1);
  resume_step(c, t);
}

void Kernel::stop_run(Core& c) {
  Task* t = c.current;
  EO_CHECK(t != nullptr);
  const bool had_event = c.run_event != sim::kInvalidEvent;
  if (had_event) {
    engine_.cancel(c.run_event);
    c.run_event = sim::kInvalidEvent;
  }
  if (auto* a = std::get_if<ComputeAction>(&t->pending)) {
    if (had_event) {
      const SimDuration elapsed = now() - c.run_start;
      a->remaining_wall -= static_cast<SimDuration>(
          static_cast<double>(elapsed) * c.run_speed + 0.5);
      if (a->remaining_wall < 1) a->remaining_wall = 1;
    }
  } else if (auto* a = std::get_if<SpinUntilAction>(&t->pending)) {
    auto& spinners = a->word->running_spinners_;
    spinners.erase(std::remove(spinners.begin(), spinners.end(), t),
                   spinners.end());
    a->exit_scheduled = false;
  }
}

void Kernel::deschedule_current(Core& c, bool requeue, bool voluntary) {
  Task* t = c.current;
  EO_CHECK(t != nullptr);
  account_segment(c);
  stop_run(c);
  account_tick(c);
  if (voluntary) {
    ++t->stats.voluntary_switches;
    ++stats_.voluntary_switches;
  } else {
    ++stats_.involuntary_switches;
  }
  EO_TRACE_EVENT(&tracer_, c.id, trace::EventKind::kSwitchOut, t->tid,
                 static_cast<std::uint64_t>(t->se.vruntime),
                 voluntary ? 1u : 0u);
  policy_->put_prev(c.id, &t->se);
  if (requeue) {
    // A VB-parked task back on the queue waits in kVbParked; otherwise this
    // is plain runqueue wait. Callers that requeue for a different reason
    // (BWD skip, VB park-in-progress) refine the state right after, at the
    // same timestamp, so no time is misattributed.
    set_state(t, t->se.vb_blocked ? obs::TaskDelayState::kVbParked
                                  : obs::TaskDelayState::kRunnable);
  } else {
    // Blocking/exit paths: the caller sets the task's new state immediately
    // after.
    policy_->dequeue(c.id, &t->se);
  }
  c.current = nullptr;
  c.need_resched = false;
}

void Kernel::setup_vb_check(Core& c, Task* t) {
  ++stats_.vb_check_quanta;
  EO_TRACE_EVENT(&tracer_, c.id, trace::EventKind::kVbSkipQuantum, t->tid,
                 stats_.vb_check_quanta, 0);
  set_segment(c, hw::SegmentKind::kRegular, hw::kVariedSites, false);
  const SimDuration q = cfg_.costs.vb_check_quantum;
  c.run_start = now();
  c.run_speed = 1.0;
  c.run_event = engine_.schedule_after(q, [this, &c, q] {
    c.run_event = sim::kInvalidEvent;
    Task* cur = c.current;
    EO_CHECK(cur != nullptr);
    c.metrics.vb_check += q;
    if (!cur->se.vb_blocked) {
      // The flag was cleared mid-quantum: resume for real.
      account_tick(c);
      begin_current(c);
      return;
    }
    deschedule_current(c, /*requeue=*/true, /*voluntary=*/true);
    schedule(c);
  });
}

// ---------------------------------------------------------------------------
// Preemption
// ---------------------------------------------------------------------------

void Kernel::maybe_preempt(Core& c, const sched::SchedEntity* wakee) {
  if (!c.online) return;
  if (c.current == nullptr) {
    if (!c.in_switch) kick(c);
    return;
  }
  if (!policy_->should_preempt(c.id, wakee)) return;
  if (c.current->in_kernel || c.in_switch) {
    c.need_resched = true;
    return;
  }
  // Wakeup preemption is immediate in CFS once the vruntime gap exceeds the
  // wakeup granularity; the paper's 750 us minimum slice governs tick-driven
  // preemption between runnable tasks, which the slice computation enforces.
  do_preempt(c);
}

void Kernel::do_preempt(Core& c) {
  deschedule_current(c, /*requeue=*/true, /*voluntary=*/false);
  schedule(c);
}

// ---------------------------------------------------------------------------
// Inline actions: atomics and memory-profile switches
// ---------------------------------------------------------------------------

void Kernel::perform_inline(Task* t, const InlineAction& action) {
  EO_CHECK(t == g_current_task) << "inline action issued by task " << t->name
                                << " outside its own resumption";
  if (const auto* p = std::get_if<SetMemProfileAction>(&action)) {
    t->mem = p->profile;
    return;
  }
  const AtomicAction& a = *std::get_if<AtomicAction>(&action);
  EO_CHECK(a.word != nullptr);
  t->overhead += cfg_.costs.atomic_op;
  auto& v = a.word->value_;
  const std::uint64_t old = v;
  bool stored = false;
  std::uint64_t result = 0;
  switch (a.op) {
    case AtomicOp::kLoad:
      result = old;
      break;
    case AtomicOp::kStore:
      v = a.a;
      stored = true;
      break;
    case AtomicOp::kExchange:
      v = a.a;
      stored = true;
      result = old;
      break;
    case AtomicOp::kCompareSwap:
      if (old == a.a) {
        v = a.b;
        stored = true;
        result = 1;
      } else {
        result = 0;
      }
      break;
    case AtomicOp::kFetchAdd:
      v = old + a.a;
      stored = true;
      result = old;
      break;
  }
  t->action_result = result;
  if (stored && v != old) notify_spinners(a.word);
}

// ---------------------------------------------------------------------------
// Futex
// ---------------------------------------------------------------------------

bool Kernel::handle_futex_wait(Core& c, Task* t, const FutexWaitAction& a) {
  auto& b = futex_.bucket_for(a.word);
  SimDuration cost = cfg_.costs.syscall_entry;
  cost += futex_.locks().acquire(b.lock, now(), cfg_.costs.bucket_lock_hold,
                                 c.id, t->tid) +
          cfg_.costs.bucket_lock_hold;
  if (a.word->value_ != a.expected) {
    // EWOULDBLOCK: the value changed; return to userspace.
    t->overhead += cost;
    finish_action(t, 1);
    return true;
  }
  const bool vb = vb_policy_.use_vb_futex(a.word->futex_waiters_ + 1,
                                          n_online_, c.id, t->tid);
  t->waiter.vb = vb;
  b.waiters.push_back(&t->waiter);
  ++a.word->futex_waiters_;
  t->wait_word = a.word;
  EO_TRACE_EVENT(&tracer_, c.id, trace::EventKind::kFutexWait, t->tid,
                 a.word->id_, vb ? 1u : 0u);
  if (!vb && cfg_.features.vb_futex) ++stats_.vb_fallback_vanilla;
  park_or_sleep(c, t, cost, obs::TaskDelayState::kFutexBlocked,
                stats_.futex_sleeps);
  return false;
}

void Kernel::park_or_sleep(Core& c, Task* t, SimDuration cost,
                           obs::TaskDelayState sleep_state,
                           std::uint64_t& sleeps) {
  ++vb_decisions_;
  if (t->waiter.vb) {
    ++stats_.vb_parks;
    t->overhead += cost + cfg_.costs.vb_park;
    deschedule_current(c, /*requeue=*/true, /*voluntary=*/true);
    policy_->vb_park(c.id, &t->se);
    set_state(t, obs::TaskDelayState::kVbParked);
  } else {
    ++sleeps;
    t->overhead += cost + cfg_.costs.futex_wait_setup;
    deschedule_current(c, /*requeue=*/false, /*voluntary=*/true);
    set_state(t, sleep_state);
  }
  schedule(c);
}

bool Kernel::handle_futex_wake(Core& c, Task* t, const FutexWakeAction& a) {
  auto& b = futex_.bucket_for(a.word);
  SimDuration cost = cfg_.costs.syscall_entry;
  // Fill a pooled chain in place: matching waiters are spliced from the
  // bucket's intrusive list onto the chain's, so the steady-state wake
  // performs no allocation at all.
  WakeChain* chain = alloc_chain();
  const int want = a.n <= 0 ? 0 : a.n;
  SimDuration hold = cfg_.costs.bucket_lock_hold;
  // Only waiters on this word are woken: buckets are shared by hash, and
  // futex_wake matches the (uaddr) key while walking the bucket queue.
  for (futex::WaiterLink* l = b.waiters.begin_link();
       l != b.waiters.end_link() &&
       static_cast<int>(chain->waiters.size()) < want;) {
    futex::WaiterLink* next = l->next;
    if (l->task->wait_word == a.word) {
      b.waiters.erase(l);
      --a.word->futex_waiters_;
      chain->waiters.push_back(l);
      hold += cfg_.costs.wake_q_move;
    }
    l = next;
  }
  cost += futex_.locks().acquire(b.lock, now(), hold, c.id, t->tid) + hold;
  ++stats_.futex_wakes;
  EO_TRACE_EVENT(&tracer_, c.id, trace::EventKind::kFutexWake, t->tid,
                 a.word->id_,
                 static_cast<std::uint64_t>(chain->waiters.size()));
  if (chain->waiters.empty()) {
    release_chain(chain);
    t->overhead += cost;
    finish_action(t, 0);
    return true;
  }
  start_wake_chain(c, t, chain, cost, /*delivered=*/false);
  return false;
}

Kernel::WakeChain* Kernel::alloc_chain() {
  if (!chain_free_.empty()) {
    WakeChain* chain = chain_free_.back();
    chain_free_.pop_back();
    return chain;
  }
  chain_storage_.emplace_back();
  return &chain_storage_.back();
}

void Kernel::release_chain(WakeChain* chain) {
  EO_CHECK(chain->waiters.empty());  // every waiter was popped by a step
  chain->waker = nullptr;
  chain->waker_cpu = -1;
  chain->result = 0;
  chain->delivered = false;
  chain_free_.push_back(chain);
}

void Kernel::start_wake_chain(Core& c, Task* waker, WakeChain* chain,
                              SimDuration initial_cost, bool delivered) {
  waker->in_kernel = true;
  chain->waker = waker;
  chain->waker_cpu = c.id;
  chain->delivered = delivered;
  EO_TRACE_EVENT(&tracer_, c.id, trace::EventKind::kWakeupBegin, waker->tid,
                 static_cast<std::uint64_t>(chain->waiters.size()), 0);
  engine_.schedule_after(initial_cost,
                         [this, chain] { wake_chain_step(chain); });
}

void Kernel::wake_chain_step(WakeChain* chain) {
  if (!chain->waiters.empty()) {
    // Pop before waking: once woken the task may block again and reuse its
    // embedded link, so it must already be off the chain.
    futex::WaiterLink* w = chain->waiters.pop_front();
    Task* task = w->task;
    const bool vb = w->vb;
    if (!chain->delivered) finish_action(task, 0);
    const SimDuration cost = vb ? wake_task_vb(task) : wake_task_vanilla(task);
    ++chain->result;
    engine_.schedule_after(cost, [this, chain] { wake_chain_step(chain); });
    return;
  }
  // Chain complete: recycle it, then resume the waker (which may start a
  // fresh chain immediately).
  Task* w = chain->waker;
  const int waker_cpu = chain->waker_cpu;
  const std::uint64_t result = chain->result;
  release_chain(chain);
  w->in_kernel = false;
  EO_TRACE_EVENT(&tracer_, waker_cpu, trace::EventKind::kWakeupEnd,
                 w->tid, result, 0);
  finish_action(w, result);
  if (!w->running()) {
    // Waker was evicted (core offlining); it resumes when next scheduled.
    return;
  }
  EO_CHECK_GE(w->se.cpu, 0);
  Core& c = core(w->se.cpu);
  EO_CHECK_EQ(c.current, w);
  if (c.need_resched) {
    deschedule_current(c, /*requeue=*/true, /*voluntary=*/false);
    schedule(c);
    return;
  }
  c.need_resched = false;
  resume_step(c, w);
}

int Kernel::select_wake_cpu(Task* t) {
  if (t->pinned && core(t->pin_cpu).online) return t->pin_cpu;
  int prev = t->last_cpu;
  if (prev < 0 || !core(prev).online) prev = -1;
  if (prev >= 0 && policy_->nr_schedulable(prev) == 0 &&
      core(prev).current == nullptr) {
    return prev;  // wake-affine fast path: previous core is idle
  }
  // Scan for the least-loaded online core, preferring the previous socket.
  int best = prev >= 0 ? prev : 0;
  int best_load = 1 << 30;
  const int prev_socket = prev >= 0 ? cfg_.topo.socket_of(prev) : -1;
  for (int i = 0; i < n_cores(); ++i) {
    Core& ci = core(i);
    if (!ci.online) continue;
    int load = policy_->nr_running(i) + (ci.current != nullptr ? 0 : -1);
    // Prefer same socket on ties by biasing other-socket loads up.
    if (prev_socket >= 0 && cfg_.topo.socket_of(i) != prev_socket) load += 1;
    if (i == prev) load -= 1;  // mild wake-affinity
    if (load < best_load) {
      best_load = load;
      best = i;
    }
  }
  return best;
}

SimDuration Kernel::wake_task_vanilla(Task* t) {
  EO_CHECK(t->blocked());
  ++stats_.wakeups;
  t->wait_word = nullptr;
  SimDuration cost =
      cfg_.costs.ttwu_base + n_online_ * cfg_.costs.ttwu_scan_per_core;
  const int cpu = select_wake_cpu(t);
  Core& tc = core(cpu);
  cost += tc.rq_lock.acquire(now(), cfg_.costs.rq_lock_hold) +
          cfg_.costs.rq_lock_hold;
  const bool wake_migrated = t->last_cpu >= 0 && cpu != t->last_cpu;
  if (wake_migrated) {
    ++stats_.wakeup_migrations;
    charge_migration(t, t->last_cpu, cpu,
                     !cfg_.topo.same_socket(cpu, t->last_cpu));
  }
  // Cross-CPU wakeup placements charge the post-wake queue wait to
  // kMigrating (the cache-cold dispatch delay); same-CPU wakes to kRunnable.
  set_state(t, wake_migrated ? obs::TaskDelayState::kMigrating
                             : obs::TaskDelayState::kRunnable);
  t->last_cpu = cpu;
  t->runnable_since = now();
  EO_TRACE_EVENT(&tracer_, cpu, trace::EventKind::kWakeup, t->tid,
                 static_cast<std::uint64_t>(cpu), 0);
  policy_->enqueue(cpu, &t->se, /*wakeup=*/true);
  maybe_preempt(tc, &t->se);
  return cost;
}

SimDuration Kernel::wake_task_vb(Task* t) {
  EO_CHECK(t->se.vb_blocked);
  ++stats_.vb_unparks;
  ++stats_.wakeups;
  t->wait_word = nullptr;
  EO_CHECK_GE(t->se.cpu, 0);
  Core& tc = core(t->se.cpu);
  t->runnable_since = now();
  EO_TRACE_EVENT(&tracer_, t->se.cpu, trace::EventKind::kWakeup, t->tid,
                 static_cast<std::uint64_t>(t->se.cpu), 1);
  if (tc.current == t) {
    // Mid flag-check quantum: clear in place; the quantum event resumes it.
    // The task is on a core, so its delay state is already kOncpu.
    policy_->vb_clear_current(tc.id, &t->se);
  } else {
    policy_->vb_unpark(tc.id, &t->se);
    // Unparked: the remaining queue wait is ordinary rq wait, not park time.
    set_state(t, obs::TaskDelayState::kRunnable);
    maybe_preempt(tc, &t->se);
  }
  return cfg_.costs.vb_unpark;
}

// ---------------------------------------------------------------------------
// Epoll
// ---------------------------------------------------------------------------

bool Kernel::handle_epoll_wait(Core& c, Task* t, const EpollWaitAction& a) {
  auto& ep = epolls_.get(a.epfd);
  SimDuration cost = cfg_.costs.syscall_entry;
  cost += epolls_.locks().acquire(ep.lock, now(), cfg_.costs.bucket_lock_hold,
                                  c.id, t->tid) +
          cfg_.costs.bucket_lock_hold;
  if (!ep.ready.empty()) {
    const std::uint64_t data = ep.ready.front();
    ep.ready.pop_front();
    t->overhead += cost;
    finish_action(t, data);
    return true;
  }
  const bool vb = vb_policy_.use_vb_epoll(
      static_cast<int>(ep.waiters.size()) + 1, n_online_, c.id, t->tid);
  t->waiter.vb = vb;
  ep.waiters.push_back(&t->waiter);
  EO_TRACE_EVENT(&tracer_, c.id, trace::EventKind::kEpollWait, t->tid,
                 static_cast<std::uint64_t>(a.epfd), vb ? 1u : 0u);
  park_or_sleep(c, t, cost, obs::TaskDelayState::kEpollBlocked,
                stats_.epoll_sleeps);
  return false;
}

futex::WaiterLink* Kernel::epoll_deliver(epollsim::EpollInstance& ep,
                                         std::uint64_t data) {
  if (ep.waiters.empty()) {
    ep.ready.push_back(data);
    return nullptr;
  }
  futex::WaiterLink* w = ep.waiters.pop_front();
  finish_action(w->task, data);
  return w;
}

bool Kernel::handle_epoll_post(Core& c, Task* t, const EpollPostAction& a) {
  auto& ep = epolls_.get(a.epfd);
  SimDuration cost = cfg_.costs.syscall_entry;
  cost += epolls_.locks().acquire(ep.lock, now(), cfg_.costs.bucket_lock_hold,
                                  c.id, t->tid) +
          cfg_.costs.bucket_lock_hold;
  EO_TRACE_EVENT(&tracer_, c.id, trace::EventKind::kEpollPost, t->tid,
                 static_cast<std::uint64_t>(a.epfd),
                 ep.waiters.empty() ? 0u : 1u);
  futex::WaiterLink* w = epoll_deliver(ep, a.data);
  if (w == nullptr) {
    t->overhead += cost;
    finish_action(t, 0);
    return true;
  }
  // Deliver via the same serialized wake machinery, but the result is
  // already set on the waiter; the chain only performs the wakeup.
  WakeChain* chain = alloc_chain();
  chain->waiters.push_back(w);
  start_wake_chain(c, t, chain, cost, /*delivered=*/true);
  return false;
}

void Kernel::epoll_post_external(int epfd, std::uint64_t data) {
  auto& ep = epolls_.get(epfd);
  EO_TRACE_EVENT(&tracer_, -1, trace::EventKind::kEpollPost, 0,
                 static_cast<std::uint64_t>(epfd),
                 ep.waiters.empty() ? 0u : 1u);
  futex::WaiterLink* w = epoll_deliver(ep, data);
  if (w == nullptr) return;
  // Interrupt-context wakeup: the cost is paid by the "IRQ", not a task.
  if (w->vb) {
    wake_task_vb(w->task);
  } else {
    wake_task_vanilla(w->task);
  }
}

// ---------------------------------------------------------------------------
// Sleep / exit
// ---------------------------------------------------------------------------

void Kernel::handle_sleep(Core& c, Task* t, const SleepAction& a) {
  EO_TRACE_EVENT(&tracer_, c.id, trace::EventKind::kSleep, t->tid,
                 a.duration > 0 ? static_cast<std::uint64_t>(a.duration) : 1u,
                 0);
  deschedule_current(c, /*requeue=*/false, /*voluntary=*/true);
  set_state(t, obs::TaskDelayState::kSleeping);
  const SimDuration d = std::max<SimDuration>(a.duration, 1);
  engine_.schedule_after(d, [this, t] {
    if (!t->blocked()) return;
    finish_action(t, 0);
    wake_task_vanilla(t);
  });
  schedule(c);
}

void Kernel::handle_exit(Core& c, Task* t) {
  EO_TRACE_EVENT(&tracer_, c.id, trace::EventKind::kTaskExit, t->tid, 0, 0);
  deschedule_current(c, /*requeue=*/false, /*voluntary=*/true);
  // The final interval (still kOncpu: exit happens from the CPU) is charged
  // and the record sealed; lifetime is now fixed.
  t->delay.finish(now());
  --live_tasks_;
  if (live_tasks_ == 0) last_exit_time_ = now();
  schedule(c);
}

// ---------------------------------------------------------------------------
// Per-core timers
// ---------------------------------------------------------------------------

void Kernel::arm_timers(Core& c) {
  // First fire one period past a per-core offset, then every period; the
  // offsets stagger cores so they do not balance in lockstep.
  const SimDuration balance = cfg_.cfs.balance_interval;
  c.balance_timer = engine_.schedule_periodic(
      c.id * 200_us + balance, balance, [this, &c] { balance_timer_fire(c); });
  if (cfg_.features.bwd) {
    const SimDuration bwd = cfg_.features.bwd_interval;
    c.bwd_timer = engine_.schedule_periodic(
        c.id * 5_us + bwd, bwd, [this, &c] { bwd_timer_fire(c); });
  }
}

void Kernel::disarm_timers(Core& c) {
  engine_.cancel(c.balance_timer);
  engine_.cancel(c.bwd_timer);
  c.balance_timer = sim::kInvalidEvent;
  c.bwd_timer = sim::kInvalidEvent;
}

void Kernel::bwd_timer_fire(Core& c) {
  EO_TRACE_EVENT(&tracer_, c.id, trace::EventKind::kTimerFire, 0, 1,
                 static_cast<std::uint64_t>(cfg_.features.bwd_interval));
  if (!c.online) return;
  ++stats_.bwd_timer_fires;
  account_segment(c);
  c.pmc.close_window(c.rng);
  const auto verdict =
      bwd_.evaluate(c.lbr, c.pmc, c.window, c.id,
                    c.current != nullptr ? c.current->tid : 0);
  if (c.window.busy > 0) bwd_accuracy_.add(verdict);
  if (verdict.detected) {
    ++stats_.bwd_detections;
    Task* t = c.current;
    if (t != nullptr && !t->in_kernel && !c.in_switch &&
        policy_->nr_schedulable(c.id) > 0) {
      ++stats_.bwd_descheduled;
      EO_TRACE_EVENT(&tracer_, c.id, trace::EventKind::kBwdDesched, t->tid,
                     verdict.ground_truth_spin ? 1u : 0u, 0);
      deschedule_current(c, /*requeue=*/true, /*voluntary=*/false);
      policy_->bwd_mark_skip(c.id, &t->se);
      // The whole delay a detection induces — from the skip mark until the
      // task next gets the CPU — is attributed to the skip, even after the
      // skip window itself expires.
      set_state(t, obs::TaskDelayState::kBwdSkipDelayed);
      schedule(c);
    }
  }
  // Timer overhead is charged to whoever is running.
  if (c.current != nullptr) c.current->overhead += cfg_.costs.bwd_timer_fire;
  c.lbr.clear();
  c.pmc.clear();
  c.window = core::BwdWindowTruth{};
}

// ---------------------------------------------------------------------------
// Load balancing
// ---------------------------------------------------------------------------

void Kernel::balance_timer_fire(Core& c) {
  EO_TRACE_EVENT(&tracer_, c.id, trace::EventKind::kTimerFire, 0, 0,
                 static_cast<std::uint64_t>(cfg_.cfs.balance_interval));
  if (!c.online) return;
  try_balance(c, /*newly_idle=*/false);
}

bool Kernel::try_balance(Core& c, bool newly_idle) {
  if (!c.online) return false;
  const auto d = policy_->balance(
      c.id, [this](int i) { return core(i).online; }, newly_idle);
  if (!d) return false;
  apply_migration(*d);
  return true;
}

void Kernel::charge_migration(Task* t, int src, int dst, bool cross) {
  (cross ? stats_.migrations_cross_node : stats_.migrations_in_node)++;
  t->resume_penalty = std::max(
      t->resume_penalty,
      cache_.migration_penalty(t->mem.working_set, cross) +
          cfg_.costs.migration_base);
  t->last_cpu = dst;
  EO_TRACE_EVENT(&tracer_, dst, trace::EventKind::kMigration, t->tid,
                 static_cast<std::uint64_t>(src),
                 static_cast<std::uint64_t>(dst));
}

void Kernel::apply_migration(const sched::BalanceDecision& d) {
  Core& dst = core(d.dst_cpu);
  Task* t = task_of(d.victim);
  policy_->dequeue(d.src_cpu, d.victim);
  charge_migration(t, d.src_cpu, d.dst_cpu, d.cross_socket);
  // Translate the victim into the destination queue's fairness window.
  policy_->place_migrated(d.src_cpu, d.dst_cpu, d.victim);
  // Queue wait at the destination until first dispatch is kMigrating;
  // VB-parked victims keep their park attribution.
  if (!t->se.vb_blocked) set_state(t, obs::TaskDelayState::kMigrating);
  kick(dst);
}

}  // namespace eo::kern
