#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>

#include "common/thread_pool.h"
#include "core/config.h"
#include "metrics/experiment.h"
#include "obs/export.h"
#include "obs/fleet_agg.h"
#include "obs/progress.h"
#include "traffic/fleet.h"
#include "workloads/suite.h"

namespace perfbench {

using namespace eo;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"blocking", "spin", "serve"};
  return names;
}

void LayerCounts::merge(const LayerCounts& o) {
#define PERFBENCH_COUNT_MERGE(name) name += o.name;
  PERFBENCH_COUNTS(PERFBENCH_COUNT_MERGE)
#undef PERFBENCH_COUNT_MERGE
}

void LayerTimes::append(const LayerTimes& o) {
  const auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  cat(&kernel_ctor_s, o.kernel_ctor_s);
  cat(&spawn_s, o.spawn_s);
  cat(&fleet_ctor_s, o.fleet_ctor_s);
  cat(&snapshot_s, o.snapshot_s);
  cat(&host_run_s, o.host_run_s);
}

bool LayerCounts::operator==(const LayerCounts& o) const {
  bool eq = true;
#define PERFBENCH_COUNT_EQ(name) eq = eq && name == o.name;
  PERFBENCH_COUNTS(PERFBENCH_COUNT_EQ)
#undef PERFBENCH_COUNT_EQ
  return eq;
}

namespace {

// Figure 9 / Figure 14 shape: 32 threads on 8 cores (two sockets).
constexpr int kThreads = 32;
constexpr int kCpus = 8;
// spawn_benchmark duration scales at --scale 1: Figure 9 at full length
// (about 0.9 s of host time per round), and Figure 14 at four times its
// length so each spin run (about 50 ms) dwarfs its own set-up.
constexpr double kBlockingScale = 1.0;
constexpr double kSpinScale = 4.0;
// Serve: per-host shape of the full-scale scenario (32768 connections, 16
// epoll workers on 8 cores) on a two-host fleet.
constexpr int kServeHosts = 2;
constexpr std::uint32_t kServeConnections = 32768;
const std::vector<double> kServeLoads = {0.4, 0.6, 0.8, 0.95};
/// Load points where the paper shape (VB+BWD p99 <= vanilla p99) is checked.
constexpr double kShapeMaxLoad = 0.8;

int host_thread_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

/// One operation's outcome; the round folds them in operation order.
struct OpResult {
  std::string label;
  bool failed = false;
  std::string why;
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t digest = 0;
  /// Simulated figure of merit for the paper-shape check: exec time
  /// (blocking, spin) or request p99 (serve), in ns.
  std::int64_t shape_ns = 0;
  LayerCounts counts;
  LayerTimes times;
};

std::uint64_t counter(const std::vector<obs::MetricRegistry::CounterValue>& cs,
                      const char* name) {
  for (const auto& c : cs) {
    if (c.name == name) return c.value;
  }
  return 0;
}

void add_stats(Digest* d, const sched::SchedStats& s) {
#define PERFBENCH_DIGEST_STAT(name) d->add(s.name);
  EO_SCHED_STATS_FIELDS(PERFBENCH_DIGEST_STAT)
#undef PERFBENCH_DIGEST_STAT
}

void add_hist(Digest* d, const Histogram& h) {
  d->add(h.total_count());
  if (h.total_count() == 0) return;
  d->add(static_cast<std::uint64_t>(h.min()));
  d->add(static_cast<std::uint64_t>(h.max()));
  d->add(static_cast<std::uint64_t>(h.p50()));
  d->add(static_cast<std::uint64_t>(h.p99()));
  d->add(static_cast<std::uint64_t>(h.p999()));
}

void count_stats(LayerCounts* c, const sched::SchedStats& s) {
  c->context_switches += s.context_switches;
  c->wakeups += s.wakeups;
  c->migrations += s.total_migrations();
  c->futex_sleeps += s.futex_sleeps;
  c->futex_wakes += s.futex_wakes;
  c->vb_parks += s.vb_parks;
  c->vb_check_quanta += s.vb_check_quanta;
  c->bwd_descheduled += s.bwd_descheduled;
}

void count_registry(LayerCounts* c,
                    const std::vector<obs::MetricRegistry::CounterValue>& cs) {
  c->rq_picks += counter(cs, "sched.rq.picks");
  c->rq_enqueues += counter(cs, "sched.rq.enqueues");
  c->balance_attempts += counter(cs, "sched.balance.attempts");
  c->balance_pulls += counter(cs, "sched.balance.pulls");
  c->futex_locks += counter(cs, "futex.bucket_locks");
  c->futex_locks_contended += counter(cs, "futex.bucket_locks_contended");
  c->epoll_locks += counter(cs, "epoll.instance_locks");
  c->epoll_locks_contended += counter(cs, "epoll.instance_locks_contended");
}

// ---------------------------------------------------------------------------
// blocking / spin: one simulated program run per operation
// ---------------------------------------------------------------------------

struct SimCase {
  std::string program;
  bool optimized;
};

std::vector<SimCase> sim_cases(const std::string& workload) {
  const std::vector<std::string> programs =
      workload == "blocking" ? workloads::fig9_benchmarks()
                             : std::vector<std::string>{"lu", "volrend"};
  std::vector<SimCase> cases;
  for (const auto& p : programs) {
    cases.push_back({p, false});
    cases.push_back({p, true});
  }
  return cases;
}

OpResult run_sim_case(const SimCase& c, const Options& opt, SpanLog* spans) {
  const bool blocking = opt.workload == "blocking";
  const auto& spec = workloads::find_benchmark(c.program);
  metrics::RunConfig rc;
  rc.cpus = kCpus;
  rc.sockets = 2;
  rc.features =
      c.optimized ? core::Features::optimized() : core::Features::vanilla();
  rc.ref_footprint = spec.ref_footprint();
  rc.seed = opt.seed;
  // The figure benches' own simulated deadlines.
  const SimTime deadline =
      opt.deadline_ms > 0
          ? static_cast<SimTime>(opt.deadline_ms * 1e6)
          : (blocking ? 600_s : 2000_s);
  const double scale = (blocking ? kBlockingScale : kSpinScale) * opt.scale;

  OpResult r;
  r.label = c.program + (c.optimized ? "/vb+bwd" : "/vanilla");
  const int tid = host_thread_id();
  const int op_span = spans != nullptr ? spans->open(r.label, -1, tid) : -1;

  const auto t0 = Clock::now();
  kern::Kernel k(metrics::make_kernel_config(rc));
  const auto t1 = Clock::now();
  workloads::spawn_benchmark(k, spec, kThreads, opt.seed, scale);
  const auto t2 = Clock::now();
  const bool exited = k.run_to_exit(deadline);
  const auto t3 = Clock::now();

  r.times.kernel_ctor_s.push_back(seconds_between(t0, t1));
  r.times.spawn_s.push_back(seconds_between(t1, t2));
  r.setup_s = seconds_between(t0, t2);
  r.wall_s = seconds_between(t2, t3);
  if (spans != nullptr) {
    spans->add("kern.ctor", t0, t1, op_span, tid);
    spans->add("workloads.spawn", t1, t2, op_span, tid);
    spans->add("kern.run_to_exit", t2, t3, op_span, tid);
    spans->close(op_span);
  }

  const bool completed = exited && k.live_tasks() == 0;
  if (!completed) {
    r.failed = true;
    r.why = "missed its simulated deadline with " +
            std::to_string(k.live_tasks()) + " live task(s)";
  } else if (k.pinned_violation()) {
    r.failed = true;
    r.why = "a pinned task's core went offline";
  }
  const SimDuration exec = completed ? k.last_exit_time() : k.now();
  r.shape_ns = exec;

  Digest d;
  d.add(r.label);
  d.add(completed ? 1 : 0);
  d.add(static_cast<std::uint64_t>(exec));
  d.add(k.engine().events_fired());
  add_stats(&d, k.stats());
  const core::BwdAccuracy& bwd = k.bwd_accuracy();
  d.add(bwd.windows);
  d.add(bwd.tp);
  d.add(bwd.fp);
  d.add(bwd.fn);
  d.add(bwd.tn);
  add_hist(&d, k.wakeup_latency());
  r.digest = d.value();

  if (spans != nullptr) {
    LayerCounts& lc = r.counts;
    lc.events = k.engine().events_fired();
    count_stats(&lc, k.stats());
    count_registry(&lc, k.metric_registry().snapshot_counters());
    for (int i = 0; i < k.n_cores(); ++i) {
      lc.busy_ns += static_cast<std::uint64_t>(k.core_metrics(i).busy);
      lc.vb_check_ns += static_cast<std::uint64_t>(k.core_metrics(i).vb_check);
    }
    lc.bwd_windows = bwd.windows;
    lc.bwd_tp = bwd.tp;
    lc.bwd_fp = bwd.fp;
  }
  return r;
}

// ---------------------------------------------------------------------------
// serve: one fleet load point per operation
// ---------------------------------------------------------------------------

/// Benchmark-owned progress sink: turns each host's start/finish events into
/// a span. Hosts may report from pool threads.
class HostSpanSink : public obs::ProgressSink {
 public:
  HostSpanSink(int n_hosts, SpanLog* spans)
      : starts_(static_cast<std::size_t>(n_hosts)), spans_(spans) {}

  /// The fleet-run span host spans nest under (set before run()).
  void set_parent(int span) { parent_ = span; }
  int parent() const { return parent_; }

  void emit(const obs::ProgressEvent& ev) override {
    const auto now = Clock::now();
    if (ev.host < 0 || ev.host >= static_cast<int>(starts_.size())) return;
    std::lock_guard<std::mutex> g(mu_);
    auto& start = starts_[static_cast<std::size_t>(ev.host)];
    if (ev.kind == obs::ProgressEvent::Kind::kHostStart) {
      start = now;
    } else if (ev.kind == obs::ProgressEvent::Kind::kHostFinish) {
      host_run_s_.push_back(seconds_between(start, now));
      spans_->add("traffic.host", start, now, parent_, host_thread_id());
    }
  }

  std::vector<double> host_run_s() const {
    std::lock_guard<std::mutex> g(mu_);
    return host_run_s_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Clock::time_point> starts_;
  std::vector<double> host_run_s_;
  SpanLog* spans_;
  int parent_ = -1;
};

struct ServeCase {
  double load;
  bool optimized;
};

std::vector<ServeCase> serve_cases() {
  std::vector<ServeCase> cases;
  for (const double load : kServeLoads) {
    cases.push_back({load, false});
    cases.push_back({load, true});
  }
  return cases;
}

std::string load_label(double load) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fx", load);
  return buf;
}

traffic::FleetConfig serve_config(const ServeCase& c, const Options& opt) {
  metrics::RunConfig rc;
  rc.cpus = kCpus;
  rc.sockets = 1;
  rc.features =
      c.optimized ? core::Features::optimized() : core::Features::vanilla();
  rc.seed = opt.seed;
  rc.metrics.enabled = true;
  rc.taskstats = true;

  traffic::FleetConfig fc;
  fc.n_hosts = std::max(
      1, static_cast<int>(std::llround(kServeHosts * opt.scale)));
  fc.host.n_connections = kServeConnections;
  fc.kernel = metrics::make_kernel_config(rc);
  fc.arrival.kind = traffic::ArrivalKind::kPoisson;
  const double capacity_ops_s =
      kCpus * 1e9 / traffic::mean_request_cost_ns(fc.host);
  fc.arrival.rate_per_sec = c.load * capacity_ops_s;
  fc.seed = opt.seed;
  fc.jobs = static_cast<std::size_t>(opt.jobs);
  return fc;
}

OpResult run_serve_case(const ServeCase& c, const Options& opt,
                        SpanLog* spans) {
  OpResult r;
  r.label = load_label(c.load) + (c.optimized ? "/vb+bwd" : "/vanilla");
  const int op_span = spans != nullptr ? spans->open(r.label) : -1;
  traffic::FleetConfig fc = serve_config(c, opt);
  std::unique_ptr<HostSpanSink> sink;
  if (spans != nullptr) {
    // Attaching a sink never changes the simulated result (the fleet's
    // contract); it is what makes per-host spans visible.
    sink = std::make_unique<HostSpanSink>(fc.n_hosts, spans);
    fc.progress = sink.get();
  }

  const auto t0 = Clock::now();
  traffic::ConnectionFleet fleet(fc);
  const auto t1 = Clock::now();
  if (sink) sink->set_parent(spans->open("traffic.fleet_run", op_span));
  const auto t2 = Clock::now();
  const traffic::FleetResult fr = fleet.run();
  const auto t3 = Clock::now();
  if (sink) spans->close(sink->parent());

  r.setup_s = seconds_between(t0, t1);
  r.times.fleet_ctor_s.push_back(r.setup_s);
  r.wall_s = seconds_between(t2, t3);
  if (spans != nullptr) spans->add("traffic.fleet_ctor", t0, t1, op_span, 0);

  // Snapshot, export, and validate the telemetry the run produced.
  const auto t4 = Clock::now();
  std::string err;
  std::string fleet_json;
  if (!fr.fleet_metrics || !fr.metrics || !fr.taskstats) {
    r.failed = true;
    r.why = "fleet run carried no telemetry";
  } else if (fr.fleet_metrics->watchdog_violations != 0) {
    r.failed = true;
    r.why = "watchdog recorded " +
            std::to_string(fr.fleet_metrics->watchdog_violations) +
            " violation(s)";
  } else {
    fleet_json = obs::render_fleet(*fr.fleet_metrics, "json");
    if (!obs::validate_fleet_metrics_json(fleet_json, &err)) {
      r.failed = true;
      r.why = "fleet document invalid: " + err;
    } else if (!obs::validate_metrics_json(obs::render(*fr.metrics, "json"),
                                           &err)) {
      r.failed = true;
      r.why = "host document (with taskstats) invalid: " + err;
    }
  }
  if (!r.failed && fr.completed == 0) {
    r.failed = true;
    r.why = "no request completed";
  }
  const auto t5 = Clock::now();
  r.times.snapshot_s.push_back(seconds_between(t4, t5));
  if (spans != nullptr) {
    spans->add("obs.snapshot", t4, t5, op_span, 0);
    spans->close(op_span);
    r.times.host_run_s = sink->host_run_s();
  }
  r.shape_ns = fr.latency.p99();

  Digest d;
  d.add(r.label);
  d.add(fr.issued);
  d.add(fr.completed);
  d.add(fr.shed);
  d.add(fr.total_connections);
  d.add(fr.active_connections);
  add_hist(&d, fr.latency);
  add_hist(&d, fr.queueing);
  add_hist(&d, fr.service);
  add_hist(&d, fr.sched_delay);
  add_stats(&d, fr.stats);
  d.add(fr.blame.requests);
  d.add(static_cast<std::uint64_t>(fr.blame.total()));
  d.add(fleet_json);
  r.digest = d.value();

  if (spans != nullptr) {
    LayerCounts& lc = r.counts;
    count_stats(&lc, fr.stats);
    lc.requests = fr.issued;
    lc.completed = fr.completed;
    lc.shed = fr.shed;
    if (fr.fleet_metrics) {
      const auto& fm = *fr.fleet_metrics;
      count_registry(&lc, fm.counters);
      lc.bwd_windows = counter(fm.counters, "bwd.truth_windows");
      lc.bwd_tp = counter(fm.counters, "bwd.truth_tp");
      lc.bwd_fp = counter(fm.counters, "bwd.truth_fp");
      lc.sampler_ticks = fm.ticks;
      lc.watchdog_checks = fm.watchdog_checks;
      lc.fleet_hosts = static_cast<std::uint64_t>(fm.n_hosts);
    }
  }
  return r;
}

/// One serve host simulated through the same public calls the fleet makes
/// for each host, at 0.6x load, VB+BWD, metrics and taskstats on. It records
/// only the layer times the workload lacks (see run_round).
OpResult run_serve_probe(const Options& opt, SpanLog* spans) {
  const bool serve = opt.workload == "serve";
  OpResult r;
  r.label = "probe/serve-host";
  const int op_span = spans->open(r.label);
  const traffic::FleetConfig fc = serve_config({0.6, true}, opt);
  if (!serve) {
    const auto t0 = Clock::now();
    const traffic::ConnectionFleet fleet(fc);
    const auto t1 = Clock::now();
    r.times.fleet_ctor_s.push_back(seconds_between(t0, t1));
    spans->add("traffic.fleet_ctor", t0, t1, op_span, 0);
  }
  std::vector<traffic::Connection> conns(fc.host.n_connections);
  const SimTime win_end = fc.warmup + fc.window;

  const auto t0 = Clock::now();
  kern::Kernel k(fc.kernel);
  const auto t1 = Clock::now();
  traffic::ServeHost host(k, fc.host, conns.data(), fc.arrival, opt.seed);
  host.start(win_end);
  const auto t2 = Clock::now();
  k.run_until(fc.warmup);
  host.begin_window();
  k.run_until(win_end + fc.drain);
  host.stop();
  const bool exited = k.run_to_exit(k.now() + 1_s);
  const auto t3 = Clock::now();
  std::string err;
  const bool valid = obs::validate_metrics_json(
      obs::render(k.snapshot_metrics(), "json"), &err);
  const auto t4 = Clock::now();

  spans->add("kern.ctor", t0, t1, op_span, 0);
  spans->add("traffic.host_start", t1, t2, op_span, 0);
  spans->add("traffic.host", t2, t3, op_span, 0);
  spans->add("obs.snapshot", t3, t4, op_span, 0);
  spans->close(op_span);
  if (serve) {
    r.times.kernel_ctor_s.push_back(seconds_between(t0, t1));
    r.times.spawn_s.push_back(seconds_between(t1, t2));
  } else {
    r.times.host_run_s.push_back(seconds_between(t2, t3));
    r.times.snapshot_s.push_back(seconds_between(t3, t4));
  }
  r.wall_s = seconds_between(t2, t3);
  r.counts.events = k.engine().events_fired();
  r.counts.requests = host.issued();

  if (!exited || k.live_tasks() != 0) {
    r.failed = true;
    r.why = std::to_string(k.live_tasks()) + " task(s) still live after stop";
  } else if (k.watchdog().violations() != 0) {
    r.failed = true;
    r.why = "watchdog recorded " + std::to_string(k.watchdog().violations()) +
            " violation(s)";
  } else if (!valid) {
    r.failed = true;
    r.why = "host document (with taskstats) invalid: " + err;
  } else if (host.completed() == 0) {
    r.failed = true;
    r.why = "no request completed";
  }
  return r;
}

/// Paper shape: VB+BWD's figure of merit is no higher than vanilla's.
/// Operations come in (vanilla, vb+bwd) pairs; a violating pair fails its
/// vb+bwd operation.
void check_shape(std::vector<OpResult>* ops, const std::vector<bool>& checked) {
  for (std::size_t i = 0; i + 1 < ops->size(); i += 2) {
    OpResult& van = (*ops)[i];
    OpResult& opt = (*ops)[i + 1];
    if (!checked[i / 2] || van.failed || opt.failed) continue;
    if (opt.shape_ns > van.shape_ns) {
      opt.failed = true;
      opt.why = "paper shape: VB+BWD " + std::to_string(opt.shape_ns) +
                " ns > vanilla " + std::to_string(van.shape_ns) + " ns";
    }
  }
}

}  // namespace

RoundResult run_round(const Options& opt, SpanLog* spans) {
  std::vector<OpResult> ops;
  std::vector<bool> shape_checked;
  double segment_ns = 0.0;
  if (opt.workload == "serve") {
    const auto cases = serve_cases();
    for (const auto& c : cases) ops.push_back(run_serve_case(c, opt, spans));
    for (std::size_t i = 0; i < cases.size(); i += 2) {
      shape_checked.push_back(cases[i].load <= kShapeMaxLoad);
    }
    traffic::ServeHostConfig host;
    segment_ns = traffic::mean_request_cost_ns(host);
  } else {
    const auto cases = sim_cases(opt.workload);
    ops.resize(cases.size());
    const auto run_one = [&](std::size_t i) {
      ops[i] = run_sim_case(cases[i], opt, spans);
    };
    if (opt.jobs <= 1) {
      for (std::size_t i = 0; i < cases.size(); ++i) run_one(i);
    } else {
      ThreadPool::parallel_for(cases.size(), run_one,
                               static_cast<std::size_t>(opt.jobs));
    }
    shape_checked.assign(cases.size() / 2, true);
  }
  check_shape(&ops, shape_checked);

  RoundResult rr;
  Digest d;
  for (const OpResult& o : ops) {
    ++rr.attempted;
    if (o.failed) {
      ++rr.failed;
      rr.failures.push_back(o.label + ": " + o.why);
    }
    rr.wall_s += o.wall_s;
    rr.op_wall_s.push_back(o.wall_s);
    rr.op_setup_s.push_back(o.setup_s);
    d.add(o.digest);
    rr.counts.merge(o.counts);
    rr.times.append(o.times);
  }
  rr.digest = d.value();
  if (spans != nullptr) {
    const OpResult p = run_serve_probe(opt, spans);
    ++rr.attempted;
    if (p.failed) {
      ++rr.failed;
      rr.failures.push_back(p.label + ": " + p.why);
    }
    rr.times.append(p.times);
    const auto per = [&p](std::uint64_t n) {
      return p.wall_s * 1e9 /
             static_cast<double>(std::max<std::uint64_t>(n, 1));
    };
    rr.probe_ns_per_event = per(p.counts.events);
    rr.probe_ns_per_request = per(p.counts.requests);
  }
  if (opt.workload != "serve" && rr.counts.context_switches > 0) {
    segment_ns = static_cast<double>(rr.counts.busy_ns) /
                 static_cast<double>(rr.counts.context_switches);
  }
  rr.segment_ns = segment_ns;
  return rr;
}

}  // namespace perfbench
