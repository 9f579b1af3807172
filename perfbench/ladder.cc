#include "ladder.h"

#include <functional>
#include <memory>

#include "common/histogram.h"
#include "common/rng.h"
#include "hw/instr_stream.h"
#include "hw/lbr.h"
#include "hw/topology.h"
#include "kern/kernel.h"
#include "metrics/experiment.h"
#include "obs/fleet_agg.h"
#include "obs/sampler.h"
#include "obs/watchdog.h"
#include "runtime/sim_thread.h"
#include "sched/cfs.h"
#include "sched/policy.h"
#include "sim/engine.h"
#include "workloads/suite.h"

namespace perfbench {

using namespace eo;
using runtime::Env;
using runtime::SimThread;

namespace {

/// Keeps rung results observable so the timed work is not optimized away.
volatile std::uint64_t g_sink = 0;

/// One timed trial: host seconds of the timed region and the items in it.
struct Trial {
  double seconds = 0.0;
  std::uint64_t items = 0;
};

struct Rung {
  std::string name;
  /// Runs one trial. Anything built before the timed region (kernels,
  /// spawned threads) is excluded from `seconds`.
  std::function<Trial()> trial;
};

template <typename Fn>
Trial timed(std::uint64_t items, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return {seconds_between(t0, Clock::now()), items};
}

/// Times k.run_to_exit on a kernel whose tasks are already spawned; items
/// are what `count` reads off the finished kernel.
Trial time_run(kern::Kernel& k,
               const std::function<std::uint64_t(const kern::Kernel&)>& count) {
  const auto t0 = Clock::now();
  k.run_to_exit(100_s);
  const double s = seconds_between(t0, Clock::now());
  return {s, count(k)};
}

kern::KernelConfig cores(int n) {
  kern::KernelConfig c;
  c.topo = hw::Topology::make_cores(n, 1);
  return c;
}

// --- sim: one event's schedule + fire, and schedule + cancel ------------

constexpr int kEngineItems = 10000;

Rung engine_fire() {
  auto e = std::make_shared<sim::Engine>();
  return {"sim.fire_ns", [e] {
            std::uint64_t fired = 0;
            return timed(kEngineItems, [&] {
              for (int i = 0; i < kEngineItems; ++i) {
                e->schedule_after(i + 1, [&fired] { ++fired; });
              }
              e->run();
              g_sink = g_sink + fired;
            });
          }};
}

Rung engine_cancel() {
  auto e = std::make_shared<sim::Engine>();
  auto ids = std::make_shared<std::vector<sim::EventId>>(kEngineItems);
  return {"sim.cancel_ns", [e, ids] {
            return timed(kEngineItems, [&] {
              for (int i = 0; i < kEngineItems; ++i) {
                (*ids)[static_cast<std::size_t>(i)] =
                    e->schedule_after(i + 1, [] {});
              }
              for (const sim::EventId id : *ids) e->cancel(id);
              e->run();
            });
          }};
}

// --- kern: a bare context switch (kernel built outside the timed region) --

Rung kernel_switch() {
  return {"kern.switch_ns", [] {
            kern::Kernel k(cores(1));
            for (int i = 0; i < 8; ++i) {
              runtime::spawn(k, "t", [](Env env) -> SimThread {
                for (int r = 0; r < 250; ++r) {
                  co_await env.compute(10_us);
                  co_await env.yield();
                }
              });
            }
            return time_run(k, [](const kern::Kernel& kk) {
              return kk.stats().context_switches;
            });
          }};
}

// --- sched: cfs enqueue / pick_next / put_prev at runqueue depth 4 --------

Rung sched_pick() {
  struct State {
    hw::Topology topo = hw::Topology::make_cores(1, 1);
    sched::CfsParams cfs;
    sched::PolicyParams params;
    std::unique_ptr<sched::SchedPolicy> policy;
    sched::SchedEntity se[4];
  };
  auto st = std::make_shared<State>();
  st->policy = sched::make_policy("cfs", &st->topo, &st->cfs, &st->params);
  for (auto& se : st->se) st->policy->place_fresh(0, &se);
  return {"sched.pick_ns", [st] {
            sched::SchedPolicy& p = *st->policy;
            return timed(kEngineItems, [&] {
              for (int i = 0; i < kEngineItems; ++i) {
                sched::SchedEntity* se = p.pick_next(0);
                p.account(0, 100_us);
                p.put_prev(0, se);
                // Sleep and wake the entity just run: a dequeue plus a
                // wakeup enqueue keep the queue at depth 4.
                p.dequeue(0, se);
                p.enqueue(0, se, /*wakeup=*/true);
              }
            });
          }};
}

// --- futex / epoll: one wait + wake round trip ----------------------------

constexpr int kRoundTrips = 1000;

Rung futex_round_trip() {
  return {"futex.round_trip_ns", [] {
            kern::Kernel k(cores(2));
            kern::SimWord* w = k.alloc_word(0);
            runtime::spawn(k, "waiter", [w](Env env) -> SimThread {
              for (int r = 0; r < kRoundTrips; ++r) {
                co_await env.futex_wait(w, static_cast<std::uint64_t>(r));
              }
            });
            runtime::spawn(k, "waker", [w](Env env) -> SimThread {
              for (int r = 0; r < kRoundTrips; ++r) {
                co_await env.compute(5_us);
                // Publish before waking so a waiter that has not parked yet
                // sees EWOULDBLOCK instead of sleeping through the wake.
                co_await env.store(w, static_cast<std::uint64_t>(r + 1));
                co_await env.futex_wake(w, 1);
              }
            });
            return time_run(k, [](const kern::Kernel&) {
              return static_cast<std::uint64_t>(kRoundTrips);
            });
          }};
}

Rung epoll_round_trip() {
  return {"epoll.round_trip_ns", [] {
            kern::Kernel k(cores(2));
            const int epfd = k.epoll_create();
            runtime::spawn(k, "waiter", [epfd](Env env) -> SimThread {
              for (int r = 0; r < kRoundTrips; ++r) {
                co_await env.epoll_wait(epfd);
              }
            });
            runtime::spawn(k, "poster", [epfd](Env env) -> SimThread {
              for (int r = 0; r < kRoundTrips; ++r) {
                co_await env.compute(5_us);
                co_await env.epoll_post(epfd, static_cast<std::uint64_t>(r));
              }
            });
            return time_run(k, [](const kern::Kernel&) {
              return static_cast<std::uint64_t>(kRoundTrips);
            });
          }};
}

// --- runtime: one coroutine await round trip ------------------------------

constexpr int kAwaits = 5000;

Rung runtime_await() {
  return {"runtime.await_ns", [] {
            kern::Kernel k(cores(1));
            kern::SimWord* w = k.alloc_word(1);
            runtime::spawn(k, "t", [w](Env env) -> SimThread {
              std::uint64_t sum = 0;
              for (int r = 0; r < kAwaits; ++r) sum += co_await env.load(w);
              g_sink = g_sink + sum;
            });
            return time_run(k, [](const kern::Kernel&) {
              return static_cast<std::uint64_t>(kAwaits);
            });
          }};
}

// --- hw: PMC sampling and LBR update of one segment -----------------------

Rung hw_sample(SimDuration segment) {
  auto rng = std::make_shared<Rng>(1);
  return {"hw.sample_ns", [rng, segment] {
            const hw::InstrStreamModel model;
            return timed(kEngineItems, [&] {
              std::uint64_t misses = 0;
              for (int i = 0; i < kEngineItems; ++i) {
                const hw::PmcSample s =
                    model.sample(hw::SegmentKind::kRegular, segment, *rng);
                misses += s.l1d_misses + s.tlb_misses;
              }
              g_sink = g_sink + misses;
            });
          }};
}

Rung hw_lbr(SimDuration segment) {
  auto lbr = std::make_shared<hw::LbrState>();
  return {"hw.lbr_ns", [lbr, segment] {
            const hw::InstrStreamModel model;
            return timed(kEngineItems, [&] {
              std::uint64_t uniform = 0;
              for (int i = 0; i < kEngineItems; ++i) {
                // Alternate a spin loop with ordinary code, as a core that
                // busy-waits between work does.
                if (i % 2 == 0) {
                  lbr->on_execute(hw::SegmentKind::kSpin, 7, segment, model);
                } else {
                  lbr->on_execute(hw::SegmentKind::kRegular, hw::kVariedSites,
                                  segment, model);
                }
                uniform += lbr->all_entries_identical_backward() ? 1 : 0;
              }
              g_sink = g_sink + uniform;
            });
          }};
}

// --- obs: one sampler tick (collect + ring push + watchdog check) ---------

constexpr int kSamplerCores = 8;
constexpr int kTicks = 2000;

Rung obs_sample_tick() {
  struct State {
    sim::Engine engine;
    obs::InvariantWatchdog watchdog;
    obs::Sampler sampler{&engine, kSamplerCores};
    std::uint64_t tick = 0;
  };
  auto st = std::make_shared<State>();
  obs::SamplerConfig cfg;
  cfg.enabled = true;
  State* s = st.get();
  // A consistent frame whose per-core depths shift every tick, so the
  // watchdog re-checks every core rather than skipping unchanged ones.
  st->sampler.start(
      cfg,
      [s](obs::CoreSample* cs, obs::GlobalSample* g) {
        std::int64_t runnable = 0;
        for (int i = 0; i < kSamplerCores; ++i) {
          obs::CoreSample& c = cs[i];
          c.rq_depth = 1 + static_cast<std::int32_t>((s->tick + i) % 3);
          c.vb_parked = 0;
          c.schedulable = c.rq_depth;
          c.bwd_skipped = 0;
          c.running = 1;
          c.online = 1;
          runnable += c.rq_depth;
        }
        ++s->tick;
        g->online_cores = kSamplerCores;
        g->tasks_runnable = runnable;
        g->tasks_sleeping = 4;
        g->live_tasks = runnable + 4;
        g->context_switches = s->tick * 8;
        g->wakeups = s->tick * 4;
      },
      &st->watchdog);
  return {"obs.sample_tick_ns", [st] {
            return timed(kTicks, [&] {
              for (int i = 0; i < kTicks; ++i) st->sampler.sample_now();
            });
          }};
}

// --- obs: fold one host's telemetry into a fleet document ----------------

constexpr int kMergeHosts = 8;

Rung obs_fleet_merge() {
  // Real host-shaped input: the telemetry of one 8-core kernel running a
  // short blocking program with metrics on, merged as kMergeHosts hosts.
  struct State {
    obs::MetricsDoc doc;
    std::vector<std::pair<std::string, Histogram>> hists;
  };
  auto st = std::make_shared<State>();
  const auto build = [](State* s) {
    metrics::RunConfig rc;
    rc.metrics.enabled = true;
    rc.features = core::Features::optimized();
    kern::Kernel k(metrics::make_kernel_config(rc));
    workloads::spawn_benchmark(k, workloads::find_benchmark("cg"), 32, 1,
                               0.05);
    k.run_to_exit(600_s);
    s->doc = k.snapshot_metrics();
    for (const auto& h : k.metric_registry().histograms()) {
      s->hists.emplace_back(h.name, *h.hist);
    }
  };
  return {"obs.fleet_merge_ns", [st, build] {
            // Built on the first (warm-up) trial, outside any timed region.
            if (st->doc.n_cores == 0) build(st.get());
            return timed(kMergeHosts, [&] {
              obs::FleetAggregator agg;
              for (int h = 0; h < kMergeHosts; ++h) {
                obs::FleetHostSample s;
                s.host = h;
                s.doc = &st->doc;
                for (const auto& [name, hist] : st->hists) {
                  s.histograms.emplace_back(name, &hist);
                }
                agg.add_host(s);
              }
              const obs::FleetMetricsDoc doc = agg.finish();
              g_sink = g_sink + static_cast<std::uint64_t>(doc.n_hosts);
            });
          }};
}

std::vector<Rung> make_rungs(double segment_ns) {
  const auto segment =
      static_cast<SimDuration>(segment_ns > 1 ? segment_ns : 1);
  return {engine_fire(),      engine_cancel(),    kernel_switch(),
          sched_pick(),       futex_round_trip(), epoll_round_trip(),
          runtime_await(),    hw_sample(segment), hw_lbr(segment),
          obs_sample_tick(),  obs_fleet_merge()};
}

}  // namespace

std::vector<RungResult> run_ladder(double budget_s, double segment_ns) {
  std::vector<Rung> rungs = make_rungs(segment_ns);
  const double per_rung_s = budget_s / static_cast<double>(rungs.size());
  constexpr std::size_t kMinTrials = 5;
  constexpr std::size_t kMaxTrials = 100000;
  std::vector<RungResult> out;
  for (Rung& rung : rungs) {
    rung.trial();  // warm-up: fills slabs, caches, lazy state
    std::vector<double> ns;
    const auto start = Clock::now();
    for (std::size_t trials = 0;
         trials < kMinTrials ||
         (seconds_between(start, Clock::now()) < per_rung_s &&
          trials < kMaxTrials);
         ++trials) {
      const Trial t = rung.trial();
      if (t.items > 0) {
        ns.push_back(t.seconds * 1e9 / static_cast<double>(t.items));
      }
    }
    out.push_back({rung.name, quartiles(ns), ns.size()});
  }
  return out;
}

}  // namespace perfbench
