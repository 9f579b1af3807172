#include "traffic/fleet.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "runtime/sim_thread.h"

namespace eo::traffic {

using runtime::Env;
using runtime::SimThread;

namespace {
/// Sentinel epoll payload asking a worker to exit.
constexpr std::uint64_t kStopEvent = ~0ull;
constexpr std::uint32_t kOpSetBit = 0x80000000u;
}  // namespace

double mean_request_cost_ns(const ServeHostConfig& cfg) {
  const double copy =
      cfg.copy_ns_per_byte * static_cast<double>(cfg.value_bytes);
  return static_cast<double>(cfg.parse_cost) +
         static_cast<double>(cfg.lookup_cost) + copy +
         cfg.set_fraction * static_cast<double>(cfg.set_extra_cost);
}

ServeHost::ServeHost(kern::Kernel& k, const ServeHostConfig& cfg,
                     Connection* conns, const ArrivalConfig& arrival,
                     std::uint64_t seed)
    : k_(k),
      cfg_(cfg),
      conns_(conns),
      arrival_(arrival, Rng(seed).next_u64()),
      rng_(Rng(seed ^ 0x746661726369ull).next_u64()),
      slab_(cfg.max_pending) {
  EO_CHECK(cfg_.n_workers > 0);
  EO_CHECK(cfg_.n_connections > 0);
  EO_CHECK(cfg_.max_pending > 0);
  EO_CHECK(cfg_.n_connections < kOpSetBit)
      << "connection index must fit in 31 bits";
  copy_cost_ = static_cast<SimDuration>(
      cfg_.copy_ns_per_byte * static_cast<double>(cfg_.value_bytes));
  epfd_ = k_.epoll_create();
}

void ServeHost::start(SimTime inject_until) {
  inject_until_ = inject_until;
  marks_.resize(static_cast<std::size_t>(cfg_.n_workers));
  for (int i = 0; i < cfg_.n_workers; ++i) {
    ServeHost* self = this;
    runtime::spawn(k_, "serve-worker-" + std::to_string(i),
                   [self, i](Env env) -> SimThread {
                     const ServeHostConfig& c = self->cfg_;
                     const SimDuration copy_cost = self->copy_cost_;
                     WorkerMark& m = self->marks_[static_cast<std::size_t>(i)];
                     for (;;) {
                       // Critical-path mark: the worker's delay-state clock
                       // just before it waits. The dequeue-time delta over
                       // this mark is the request's wake-side blame.
                       m.wait_at = env.now();
                       m.wait_snap = env.task().delay.snapshot(m.wait_at);
                       const std::uint64_t ev =
                           co_await env.epoll_wait(self->epfd_);
                       if (ev == kStopEvent) break;
                       const auto slot = static_cast<std::uint32_t>(ev);
                       PendingRequest& req = self->slab_[slot];
                       req.dequeued = env.now();
                       m.deq_snap = env.task().delay.snapshot(req.dequeued);
                       const bool is_set = (req.conn_and_op & kOpSetBit) != 0;
                       co_await env.compute(c.parse_cost);
                       co_await env.compute(c.lookup_cost);
                       co_await env.compute(is_set
                                                ? c.set_extra_cost + copy_cost
                                                : copy_cost);
                       self->complete(slot, env.now(), i,
                                      env.task().delay.snapshot(env.now()));
                     }
                     co_return;
                   });
  }
  draw_next_conn();
  schedule_arrival(arrival_.next_after(k_.now()));
}

void ServeHost::draw_next_conn() {
  next_conn_ = static_cast<std::uint32_t>(rng_.next_below(cfg_.n_connections));
  __builtin_prefetch(&conns_[next_conn_], 1);
}

void ServeHost::schedule_arrival(SimTime at) {
  if (at >= inject_until_) return;  // stop the process
  k_.engine().schedule_at(at, [this] {
    const SimTime now = k_.now();
    inject(now);
    schedule_arrival(arrival_.next_after(now));
  });
}

void ServeHost::inject(SimTime now) {
  const std::uint32_t ci = next_conn_;
  Connection& conn = conns_[ci];
  const std::uint32_t slot = slab_.claim();
  if (slot == RequestSlab::kNoSlot) {
    // Slab full: shed (open-loop overload; never queue outside the model).
    ++shed_;
    if (conn.shed != 0xffffu) ++conn.shed;
    draw_next_conn();
    return;
  }
  PendingRequest& req = slab_[slot];
  req.arrival = now;
  req.conn_and_op = ci | (rng_.chance(cfg_.set_fraction) ? kOpSetBit : 0);
  draw_next_conn();
  ++conn.issued;
  ++conn.inflight;
  ++issued_;
  k_.epoll_post_external(epfd_, slot);
}

void ServeHost::complete(std::uint32_t slot, SimTime now, int worker,
                         const obs::TaskDelaySnapshot& done_snap) {
  PendingRequest& req = slab_[slot];
  const std::uint32_t ci = req.conn_and_op & ~kOpSetBit;
  const SimDuration lat = now - req.arrival;
  latency_.add(lat);
  if (obs::kTaskstatsEnabled) {
    // Critical-path blame: decompose this request's latency into the serving
    // worker's delay states. The wake window [wait_at, dequeued) and service
    // window [dequeued, now) are continuous spans of the worker's life, so
    // the snapshot-delta totals equal the window lengths exactly and the
    // categories below sum to `lat` by integer arithmetic.
    using S = obs::TaskDelayState;
    const WorkerMark& m = marks_[static_cast<std::size_t>(worker)];
    obs::TaskDelaySnapshot wake =
        obs::TaskDelaySnapshot::delta(m.deq_snap, m.wait_snap);
    const obs::TaskDelaySnapshot svc =
        obs::TaskDelaySnapshot::delta(done_snap, m.deq_snap);
    // Time the worker spent in the wake window before this request even
    // arrived is not the request's delay: subtract it from the blocked
    // states first (park, then sleep — the worker was blocked while idle),
    // spilling into the rest only if blocked time cannot cover it.
    SimDuration pre = req.arrival > m.wait_at ? req.arrival - m.wait_at : 0;
    for (const S s : {S::kVbParked, S::kEpollBlocked, S::kSleeping,
                      S::kFutexBlocked, S::kRunnable, S::kMigrating,
                      S::kBwdSkipDelayed, S::kOncpu}) {
      if (pre <= 0) break;
      SimDuration& w = wake.t[static_cast<std::size_t>(s)];
      const SimDuration take = w < pre ? w : pre;
      w -= take;
      pre -= take;
    }
    ++blame_.requests;
    blame_.backlog += m.wait_at > req.arrival ? m.wait_at - req.arrival : 0;
    blame_.wake_park += wake[S::kVbParked];
    blame_.wake_sleep +=
        wake[S::kEpollBlocked] + wake[S::kSleeping] + wake[S::kFutexBlocked];
    blame_.rq_wait += wake[S::kRunnable] + wake[S::kMigrating] +
                      svc[S::kRunnable] + svc[S::kMigrating];
    blame_.skip_delay += wake[S::kBwdSkipDelayed] + svc[S::kBwdSkipDelayed];
    blame_.service_cpu += svc[S::kOncpu];
    // Wake-side on-CPU time (epoll-entry overhead before the block) plus any
    // service-side blocked time (impossible for these workers, but counted
    // rather than dropped so the sum stays exact).
    blame_.other += wake[S::kOncpu] + svc[S::kVbParked] +
                    svc[S::kEpollBlocked] + svc[S::kSleeping] +
                    svc[S::kFutexBlocked];
  }
  // Attribution: queueing is epoll-ready-queue wait, service is everything
  // after the worker picked the request up, and scheduling delay is the
  // service time's excess over the request's ideal CPU cost (preemptions,
  // runqueue waits mid-request). All histogram adds — alloc-free.
  queueing_.add(req.dequeued - req.arrival);
  const SimDuration svc = now - req.dequeued;
  service_.add(svc);
  SimDuration ideal = cfg_.parse_cost + cfg_.lookup_cost + copy_cost_;
  if ((req.conn_and_op & kOpSetBit) != 0) ideal += cfg_.set_extra_cost;
  sched_delay_.add(svc > ideal ? svc - ideal : 0);
  Connection& conn = conns_[ci];
  ++conn.completed;
  --conn.inflight;
  conn.last_latency_us = static_cast<std::uint32_t>(
      std::min<SimDuration>(lat / 1000, 0xffffffff));
  ++completed_;
  slab_.release(slot);
}

void ServeHost::stop() {
  for (int i = 0; i < cfg_.n_workers; ++i) {
    k_.epoll_post_external(epfd_, kStopEvent);
  }
}

void ServeHost::begin_window() {
  latency_.clear();
  queueing_.clear();
  service_.clear();
  sched_delay_.clear();
  issued_ = 0;
  completed_ = 0;
  shed_ = 0;
  blame_ = BlameBreakdown{};
}

ConnectionFleet::ConnectionFleet(const FleetConfig& cfg)
    : cfg_(cfg),
      n_conns_(static_cast<std::size_t>(cfg.n_hosts) *
               cfg.host.n_connections) {
  EO_CHECK(cfg_.n_hosts > 0);
  EO_CHECK(cfg_.window > 0);
  // Raw storage: reserving costs no page faults; run() clears each host's
  // slice on the thread that simulates it.
  conns_.reset(
      static_cast<Connection*>(::operator new(n_conns_ * sizeof(Connection))));
}

const Connection* ConnectionFleet::connections() const {
  EO_CHECK(initialised_) << "connection records read before run()";
  return conns_.get();
}

FleetResult ConnectionFleet::run() {
  FleetResult res;
  res.total_connections = n_conns_;
  res.window = cfg_.window;
  const SimTime warm_end = cfg_.warmup;
  const SimTime win_end = cfg_.warmup + cfg_.window;

  // Each host fills its own outcome buffer; nothing shared is written while
  // hosts run (each kernel is single-threaded and the connection-slab slices
  // are disjoint), so the same body serves the sequential and the
  // parallel_for path, and the host-order merge below makes the result
  // independent of execution interleaving. (The progress sink is the one
  // shared object hosts touch mid-run; it is thread-safe and write-only.)
  struct HostOutcome {
    Histogram latency;
    Histogram queueing;
    Histogram service;
    Histogram sched_delay;
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    sched::SchedStats stats;
    BlameBreakdown blame;
    bool violated = false;
    std::shared_ptr<obs::MetricsDoc> metrics;
    std::shared_ptr<obs::TaskstatsDoc> taskstats;
    /// Raw registry histograms, copied while the kernel was alive (the doc
    /// only carries quantile summaries, which do not merge).
    std::vector<std::pair<std::string, Histogram>> reg_hists;
  };
  const auto n_hosts = static_cast<std::size_t>(cfg_.n_hosts);
  std::vector<HostOutcome> outcomes(n_hosts);
  obs::ProgressSink* progress = cfg_.progress;
  const bool first_run = !initialised_;

  const auto run_host = [&](std::size_t h) {
    HostOutcome& o = outcomes[h];
    Connection* conns = &conns_[h * cfg_.host.n_connections];
    if (first_run) {
      std::uninitialized_value_construct_n(conns, cfg_.host.n_connections);
    }
    // Per-host seed: a fixed mix of (fleet seed, host index), so the host
    // sequence is stable under reordering and fleet resizing.
    const std::uint64_t host_seed =
        Rng(cfg_.seed +
            0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(h) + 1))
            .next_u64();
    kern::KernelConfig kc = cfg_.kernel;
    kc.seed = host_seed;
    kern::Kernel k(kc);
    ServeHost host(k, cfg_.host, conns, cfg_.arrival, host_seed);
    if (progress != nullptr) {
      obs::ProgressEvent ev;
      ev.kind = obs::ProgressEvent::Kind::kHostStart;
      ev.host = static_cast<int>(h);
      ev.n_hosts = cfg_.n_hosts;
      progress->emit(ev);
    }
    host.start(win_end);
    k.run_until(warm_end);
    host.begin_window();
    if (progress == nullptr) {
      k.run_until(win_end);
    } else {
      // Chunked run_until calls process exactly the same events as one call
      // — the feed reads counters between chunks without ever scheduling an
      // engine event, so the simulation is untouched.
      for (int q = 1; q <= 4; ++q) {
        k.run_until(warm_end + cfg_.window * q / 4);
        obs::ProgressEvent ev;
        ev.kind = obs::ProgressEvent::Kind::kHostProgress;
        ev.host = static_cast<int>(h);
        ev.n_hosts = cfg_.n_hosts;
        ev.fraction = static_cast<double>(q) / 4.0;
        ev.completed = host.completed();
        ev.shed = host.shed();
        progress->emit(ev);
      }
    }
    k.run_until(win_end + cfg_.drain);
    host.stop();
    k.run_to_exit(k.now() + 1_s);

    o.latency = host.latency();
    o.queueing = host.queueing();
    o.service = host.service();
    o.sched_delay = host.sched_delay();
    o.issued = host.issued();
    o.completed = host.completed();
    o.shed = host.shed();
    o.stats = k.stats();
    o.blame = host.blame();
    if (k.sampler().enabled()) {
      o.violated = k.watchdog().violations() != 0;
      // Every host's snapshot feeds the fleet aggregation (pre-PR 9 only a
      // representative host survived the run).
      o.metrics = std::make_shared<obs::MetricsDoc>(k.snapshot_metrics());
      const auto& refs = k.metric_registry().histograms();
      o.reg_hists.reserve(refs.size());
      for (const auto& r : refs) o.reg_hists.emplace_back(r.name, *r.hist);
      if (kc.taskstats) {
        // Blame rides the host document as plain counters — same names in
        // the same order on every host, so the fleet aggregator sums them
        // field-wise without knowing the struct.
        o.metrics->counters.push_back(
            {"serve.blame.requests", o.blame.requests});
#define EO_BLAME_COUNTER(name)              \
        o.metrics->counters.push_back(      \
            {"serve.blame." #name,          \
             static_cast<std::uint64_t>(o.blame.name)});
        EO_SERVE_BLAME_FIELDS(EO_BLAME_COUNTER)
#undef EO_BLAME_COUNTER
      }
    }
    if (kc.taskstats) {
      o.taskstats =
          std::make_shared<obs::TaskstatsDoc>(k.snapshot_taskstats());
    }
    if (progress != nullptr) {
      obs::ProgressEvent ev;
      ev.kind = obs::ProgressEvent::Kind::kHostFinish;
      ev.host = static_cast<int>(h);
      ev.n_hosts = cfg_.n_hosts;
      ev.completed = o.completed;
      ev.shed = o.shed;
      ev.watchdog_violations =
          k.sampler().enabled() ? k.watchdog().violations() : 0;
      progress->emit(ev);
    }
  };

  if (cfg_.jobs == 1 || n_hosts == 1) {
    for (std::size_t h = 0; h < n_hosts; ++h) run_host(h);
  } else {
    ThreadPool::parallel_for(n_hosts, run_host, cfg_.jobs);
  }
  initialised_ = true;

  // Merge in host order: every reduction below walks hosts 0..n-1, so the
  // result is independent of execution interleaving. The nominal simulated
  // duration normalizes the per-host VB/BWD activity rates.
  const double duration_s =
      static_cast<double>(cfg_.warmup + cfg_.window + cfg_.drain) / 1e9;
  obs::FleetAggregator agg;
  std::size_t pick = 0;  // representative: first violating host, else host 0
  bool have_violating = false;
  res.host_stats.reserve(n_hosts);
  for (std::size_t h = 0; h < n_hosts; ++h) {
    HostOutcome& o = outcomes[h];
    res.latency.merge(o.latency);
    res.queueing.merge(o.queueing);
    res.service.merge(o.service);
    res.sched_delay.merge(o.sched_delay);
    res.issued += o.issued;
    res.completed += o.completed;
    res.shed += o.shed;
    res.blame.merge(o.blame);
    res.host_blames.push_back(o.blame);
#define EO_FLEET_SUM(name) res.stats.name += o.stats.name;
    EO_SCHED_STATS_FIELDS(EO_FLEET_SUM)
#undef EO_FLEET_SUM
    res.host_stats.push_back(o.stats);
    if (o.violated && !have_violating) {
      pick = h;
      have_violating = true;
    }
    if (o.metrics != nullptr) {
      obs::FleetHostSample s;
      s.host = static_cast<int>(h);
      s.doc = o.metrics.get();
      s.histograms.reserve(o.reg_hists.size() + 4);
      for (const auto& [name, hist] : o.reg_hists) {
        s.histograms.emplace_back(name, &hist);
      }
      s.histograms.emplace_back("serve.latency", &o.latency);
      s.histograms.emplace_back("serve.queueing", &o.queueing);
      s.histograms.emplace_back("serve.service", &o.service);
      s.histograms.emplace_back("serve.sched_delay", &o.sched_delay);
      s.issued = o.issued;
      s.completed = o.completed;
      s.shed = o.shed;
      s.p99_ns = o.latency.p99();
      s.queue_p99_ns = o.queueing.p99();
      s.service_p99_ns = o.service.p99();
      s.sched_delay_p99_ns = o.sched_delay.p99();
      s.vb_park_rate = static_cast<double>(o.stats.vb_parks) / duration_s;
      s.bwd_skip_rate =
          static_cast<double>(o.stats.bwd_descheduled) / duration_s;
      agg.add_host(s);
    }
  }
  if (agg.n_hosts() > 0) {
    res.fleet_metrics =
        std::make_shared<obs::FleetMetricsDoc>(agg.finish());
    // The single-doc pick keeps working for consumers that want one host's
    // series; its violation ids get the same host tag the fleet doc carries.
    res.metrics = std::make_shared<obs::MetricsDoc>(obs::tag_host_violations(
        *outcomes[pick].metrics, static_cast<int>(pick)));
  }
  if (outcomes[pick].taskstats != nullptr) {
    res.taskstats = outcomes[pick].taskstats;
  }
  for (std::size_t i = 0; i < n_conns_; ++i) {
    if (conns_[i].issued > 0) ++res.active_connections;
  }
  return res;
}

}  // namespace eo::traffic
