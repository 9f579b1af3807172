// Property: a simulation is a pure function of its configuration — identical
// seeds give bit-identical schedules and metrics; different seeds perturb
// stochastic workloads but not correctness.
#include <gtest/gtest.h>

#include <cstdio>

#include "exp/result.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "metrics/experiment.h"
#include "obs/export.h"
#include "obs/fleet_agg.h"
#include "obs/progress.h"
#include "trace/export.h"
#include "traffic/fleet.h"
#include "workloads/memcached.h"
#include "workloads/mutilate.h"
#include "workloads/suite.h"

namespace eo {
namespace {

using metrics::RunConfig;
using metrics::run_experiment;

class DeterminismTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DeterminismTest, IdenticalSeedIdenticalRun) {
  const auto& spec = workloads::find_benchmark(GetParam());
  auto run = [&](std::uint64_t seed) {
    RunConfig rc;
    rc.cpus = 4;
    rc.sockets = 2;
    rc.seed = seed;
    rc.features = core::Features::optimized();
    rc.ref_footprint = spec.ref_footprint();
    rc.deadline = 300_s;
    return run_experiment(rc, [&](kern::Kernel& k) {
      workloads::spawn_benchmark(k, spec, 16, 42, 0.05);
    });
  };
  const auto a = run(7);
  const auto b = run(7);
  ASSERT_TRUE(a.completed && b.completed);
  EXPECT_EQ(a.exec_time, b.exec_time);
  EXPECT_EQ(a.stats.context_switches, b.stats.context_switches);
  EXPECT_EQ(a.stats.total_migrations(), b.stats.total_migrations());
  EXPECT_EQ(a.stats.vb_parks, b.stats.vb_parks);
  EXPECT_EQ(a.bwd.windows, b.bwd.windows);
  EXPECT_EQ(a.bwd.fp, b.bwd.fp);
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, DeterminismTest,
                         ::testing::Values("ocean", "streamcluster", "lu",
                                           "canneal"));

TEST(Determinism, MemcachedRunsReproduce) {
  auto run = [] {
    RunConfig rc;
    rc.cpus = 4;
    rc.sockets = 1;
    rc.features = core::Features::optimized();
    auto kc = metrics::make_kernel_config(rc);
    kern::Kernel k(kc);
    workloads::MemcachedConfig mc;
    mc.n_workers = 8;
    workloads::MemcachedSim server(k, mc);
    server.start();
    workloads::MutilateConfig cc;
    cc.rate_ops_per_sec = 200000;
    cc.until = 100_ms;
    cc.seed = 5;
    workloads::MutilateClient client(server, cc);
    client.start();
    k.run_until(150_ms);
    const auto done = server.completed();
    const double p99 = to_us(server.latencies().p99());
    server.stop();
    k.run_to_exit(k.now() + 1_s);
    return std::make_pair(done, p99);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

// The tracing property from src/trace/trace.h: a trace is a pure function of
// the simulation, so identical seeds export byte-identical files.
TEST(Determinism, IdenticalSeedByteIdenticalTrace) {
  const auto& spec = workloads::find_benchmark("ocean");
  auto render = [&] {
    RunConfig rc;
    rc.cpus = 4;
    rc.sockets = 2;
    rc.seed = 7;
    rc.features = core::Features::optimized();
    rc.ref_footprint = spec.ref_footprint();
    rc.deadline = 300_s;
    rc.trace.enabled = true;
    rc.trace.ring_capacity = 1u << 20;
    const auto r = run_experiment(rc, [&](kern::Kernel& k) {
      workloads::spawn_benchmark(k, spec, 16, 42, 0.05);
    });
    EXPECT_TRUE(r.trace != nullptr);
    EXPECT_FALSE(r.trace->events.empty());
    return std::make_pair(trace::render(*r.trace, "json"),
                          trace::render(*r.trace, "csv"));
  };
  const auto a = render();
  const auto b = render();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// The sweep-runner property behind `--json`: a full bench document is a pure
// function of (sweep, seed), so two same-seed runs render byte-identical JSON
// (modulo the meta block, pinned here) regardless of the host-thread count.
TEST(Determinism, SameSeedSweepRendersByteIdenticalJson) {
  auto render = [](std::size_t jobs) {
    const auto& spec = workloads::find_benchmark("ocean");
    metrics::RunConfig base;
    base.cpus = 4;
    base.sockets = 2;
    base.seed = 7;
    base.ref_footprint = spec.ref_footprint();
    base.deadline = 300_s;
    exp::Sweep sweep("determinism");
    sweep.base(base).axis("kernel", {"vanilla", "optimized"},
                          [](metrics::RunConfig& rc, std::size_t i) {
                            rc.features = i == 0 ? core::Features::vanilla()
                                                 : core::Features::optimized();
                          });
    exp::RunnerOptions opts;
    opts.jobs = jobs;
    const exp::Outcomes out =
        exp::ExperimentRunner(sweep, opts)
            .run([&](const exp::Cell&, const metrics::RunConfig& cfg) {
              return run_experiment(cfg, [&](kern::Kernel& k) {
                workloads::spawn_benchmark(k, spec, 16, 42, 0.05);
              });
            });
    exp::ResultDoc doc("prop_determinism", 0.05, 7);
    doc.set_meta("git_rev", "pinned");  // exclude the volatile meta block
    doc.add_sweep(sweep, out);
    return doc.render();
  };
  const std::string a = render(1);
  const std::string b = render(1);
  const std::string c = render(2);
  EXPECT_EQ(a, b);  // rerun with the same seed
  EXPECT_EQ(a, c);  // --jobs must not change the cells
  std::string err;
  EXPECT_TRUE(exp::validate_result_json(a, &err)) << err;
}

// The telemetry property from src/obs/: the eo-metrics document is a pure
// function of the simulation, so identical seeds export byte-identical JSON.
TEST(Determinism, IdenticalSeedByteIdenticalMetricsDoc) {
  const auto& spec = workloads::find_benchmark("ocean");
  auto render_doc = [&] {
    RunConfig rc;
    rc.cpus = 4;
    rc.sockets = 2;
    rc.seed = 7;
    rc.features = core::Features::optimized();
    rc.ref_footprint = spec.ref_footprint();
    rc.deadline = 300_s;
    rc.metrics.enabled = true;
    rc.metrics.interval = 500_us;
    const auto r = run_experiment(rc, [&](kern::Kernel& k) {
      workloads::spawn_benchmark(k, spec, 16, 42, 0.05);
    });
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.metrics != nullptr);
    return obs::render(*r.metrics, "json");
  };
  const std::string a = render_doc();
  const std::string b = render_doc();
  EXPECT_EQ(a, b);
  std::string err;
  EXPECT_TRUE(obs::validate_metrics_json(a, &err)) << err;
}

// The fleet-telemetry property from src/obs/fleet_agg.h: the merged
// eo-metrics-fleet document is a pure function of the per-host simulations —
// byte-identical across reruns and host-thread counts, and unperturbed by a
// live progress feed (which chunks each host's window to emit host_progress
// events but schedules nothing in the engine).
TEST(Determinism, FleetMetricsDocByteIdenticalAcrossJobsAndProgress) {
  std::FILE* devnull = std::fopen("/dev/null", "w");
  ASSERT_NE(devnull, nullptr);
  auto render_fleet_doc = [](std::size_t jobs, obs::ProgressSink* sink) {
    traffic::FleetConfig fc;
    fc.n_hosts = 3;
    fc.host.n_connections = 2048;
    fc.host.max_pending = 1024;
    fc.kernel.topo = hw::Topology::make_cores(4, 1);
    fc.kernel.metrics.enabled = true;
    fc.arrival.rate_per_sec =
        0.8 * 4e9 / traffic::mean_request_cost_ns(fc.host);
    fc.warmup = 2_ms;
    fc.window = 8_ms;
    fc.drain = 2_ms;
    fc.seed = 99;
    fc.jobs = jobs;
    fc.progress = sink;
    traffic::ConnectionFleet fleet(fc);
    const traffic::FleetResult r = fleet.run();
    EXPECT_GT(r.completed, 0u);
    EXPECT_NE(r.fleet_metrics, nullptr);
    return r.fleet_metrics ? obs::render_fleet(*r.fleet_metrics, "json")
                           : std::string();
  };
  obs::JsonlProgressSink jsonl(devnull);
  const std::string a = render_fleet_doc(1, nullptr);
  const std::string b = render_fleet_doc(1, nullptr);
  const std::string c = render_fleet_doc(4, nullptr);
  const std::string d = render_fleet_doc(4, &jsonl);
  EXPECT_EQ(a, b);  // rerun with the same seed
  EXPECT_EQ(a, c);  // host-thread fan-out must not change the document
  EXPECT_EQ(a, d);  // the progress feed is pure observation
  std::string err;
  EXPECT_TRUE(obs::validate_fleet_metrics_json(a, &err)) << err;
  std::fclose(devnull);
}

// The taskstats property from src/obs/taskstats.h: per-task delay accounting
// is a pure function of the simulation. The embedded eo-taskstats section and
// the folded flamegraph are byte-identical across reruns, and the fleet's
// blame decomposition and representative-host taskstats are unperturbed by
// host-thread fan-out.
TEST(Determinism, TaskstatsByteIdenticalAcrossRunsAndJobs) {
  const auto& spec = workloads::find_benchmark("ocean");
  auto render_one = [&] {
    RunConfig rc;
    rc.cpus = 4;
    rc.sockets = 2;
    rc.seed = 7;
    rc.features = core::Features::optimized();
    rc.ref_footprint = spec.ref_footprint();
    rc.deadline = 300_s;
    rc.metrics.enabled = true;
    rc.metrics.interval = 500_us;
    rc.taskstats = true;
    const auto r = run_experiment(rc, [&](kern::Kernel& k) {
      workloads::spawn_benchmark(k, spec, 16, 42, 0.05);
    });
    EXPECT_TRUE(r.completed);
    EXPECT_NE(r.metrics, nullptr);
    EXPECT_NE(r.taskstats, nullptr);
    std::string out = obs::render(*r.metrics, "json");
    if (r.taskstats) out += obs::render_folded(*r.taskstats, "prop");
    return out;
  };
  const std::string a = render_one();
  const std::string b = render_one();
  EXPECT_EQ(a, b);

  auto render_fleet = [](std::size_t jobs) {
    traffic::FleetConfig fc;
    fc.n_hosts = 3;
    fc.host.n_connections = 2048;
    fc.host.max_pending = 1024;
    fc.kernel.topo = hw::Topology::make_cores(4, 1);
    fc.kernel.metrics.enabled = true;
    fc.kernel.taskstats = true;
    fc.arrival.rate_per_sec =
        0.8 * 4e9 / traffic::mean_request_cost_ns(fc.host);
    fc.warmup = 2_ms;
    fc.window = 8_ms;
    fc.drain = 2_ms;
    fc.seed = 99;
    fc.jobs = jobs;
    traffic::ConnectionFleet fleet(fc);
    const traffic::FleetResult r = fleet.run();
    EXPECT_GT(r.completed, 0u);
    std::string out =
        r.taskstats ? obs::render_folded(*r.taskstats, "fleet") : std::string();
    out += "|requests=" + std::to_string(r.blame.requests);
#define EO_BLAME_LINE(name) \
    out += "|" #name "=" + std::to_string(r.blame.name);
    EO_SERVE_BLAME_FIELDS(EO_BLAME_LINE)
#undef EO_BLAME_LINE
    return out;
  };
  const std::string f1 = render_fleet(1);
  const std::string f4 = render_fleet(4);
  EXPECT_EQ(f1, f4);  // blame + taskstats must not depend on --jobs
}

// Sampling must be pure observation: turning metrics on cannot perturb the
// simulation itself.
TEST(Determinism, MetricsOnDoesNotPerturbSimulation) {
  const auto& spec = workloads::find_benchmark("ocean");
  auto run = [&](bool metrics_on) {
    RunConfig rc;
    rc.cpus = 4;
    rc.sockets = 2;
    rc.seed = 7;
    rc.features = core::Features::optimized();
    rc.ref_footprint = spec.ref_footprint();
    rc.deadline = 300_s;
    rc.metrics.enabled = metrics_on;
    rc.metrics.interval = 500_us;
    return run_experiment(rc, [&](kern::Kernel& k) {
      workloads::spawn_benchmark(k, spec, 16, 42, 0.05);
    });
  };
  const auto off = run(false);
  const auto on = run(true);
  ASSERT_TRUE(off.completed && on.completed);
  EXPECT_EQ(off.exec_time, on.exec_time);
  EXPECT_EQ(off.stats.context_switches, on.stats.context_switches);
  EXPECT_EQ(off.stats.total_migrations(), on.stats.total_migrations());
  EXPECT_EQ(off.stats.vb_parks, on.stats.vb_parks);
  EXPECT_EQ(off.metrics, nullptr);
  ASSERT_NE(on.metrics, nullptr);
  EXPECT_GT(on.metrics->ticks, 0u);
}

TEST(Determinism, SeedChangesPerturbStochasticRuns) {
  const auto& spec = workloads::find_benchmark("facesim");  // jittered
  auto run = [&](std::uint64_t wl_seed) {
    RunConfig rc;
    rc.cpus = 4;
    rc.sockets = 1;
    rc.ref_footprint = spec.ref_footprint();
    rc.deadline = 300_s;
    return run_experiment(rc, [&](kern::Kernel& k) {
      workloads::spawn_benchmark(k, spec, 16, wl_seed, 0.05);
    });
  };
  const auto a = run(1);
  const auto b = run(2);
  ASSERT_TRUE(a.completed && b.completed);
  EXPECT_NE(a.exec_time, b.exec_time);
}

}  // namespace
}  // namespace eo
