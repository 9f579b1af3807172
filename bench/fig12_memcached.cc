// Figure 12: memcached under thread oversubscription. Baseline 4 worker
// threads; oversubscribed 16 workers; 4/8/16 cores (oversubscription ratios
// 4/2/1). Client: mutilate-style open-loop Poisson, 10:1 GET:SET, 128 B keys
// and 2048 B values.
// Expected shape: oversubscription in vanilla Linux costs little average
// throughput/latency (~6%) but inflates p95/p99 tail latency ~8x; VB removes
// most of the tail inflation (92%/60%) and tracks the best config as cores
// scale.
#include <iostream>

#include "bench_util.h"
#include "workloads/memcached.h"
#include "workloads/mutilate.h"

using namespace eo;

namespace {

struct Cfg {
  const char* label;
  int workers;
  bool optimized;
};

const std::vector<Cfg> kCfgs = {{"4T(vanilla)", 4, false},
                                {"16T(vanilla)", 16, false},
                                {"16T(optimized)", 16, true}};

exp::CellRun run_one(int workers, double rate, const metrics::RunConfig& cfg,
                     std::uint64_t seed, double scale) {
  auto kc = metrics::make_kernel_config(cfg);
  kern::Kernel k(kc);

  workloads::MemcachedConfig mc;
  mc.n_workers = workers;
  workloads::MemcachedSim server(k, mc);
  server.start();

  const SimTime warmup = static_cast<SimTime>(300_ms * scale);
  const SimTime window = static_cast<SimTime>(1500_ms * scale);
  workloads::MutilateConfig cc;
  cc.rate_ops_per_sec = rate;
  cc.until = warmup + window;
  cc.seed = seed;
  workloads::MutilateClient client(server, cc);
  client.start();

  k.run_until(warmup);
  server.reset_measurement();
  k.run_until(warmup + window);
  // Drain in-flight requests.
  k.run_until(warmup + window + 100_ms);
  server.stop();
  k.run_to_exit(k.now() + 1_s);

  exp::CellRun r;
  r.run.completed = true;  // open-loop: the window always closes
  r.run.exec_time = window + 100_ms;
  r.run.stats = k.stats();
  if (k.sampler().enabled()) {
    r.run.metrics = std::make_shared<obs::MetricsDoc>(k.snapshot_metrics());
  }
  const Histogram& lat = server.latencies();
  r.set("tput_ops_s", static_cast<double>(lat.total_count()) /
                          to_sec(r.run.exec_time))
      .set("avg_us", to_us(static_cast<SimDuration>(lat.mean())))
      .set("p95_us", to_us(lat.p95()))
      .set("p99_us", to_us(lat.p99()))
      .set("p999_us", to_us(lat.p999()));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliSpec spec{
      .id = "fig12_memcached",
      .summary = "memcached throughput and latency under oversubscription",
      .default_scale = 0.5,
      .default_seed = 99};
  const bench::Cli cli = bench::Cli::parse(argc, argv, spec);

  const std::vector<int> cores = {4, 8, 16};
  // Offered load scales with capacity; chosen near (not past) saturation of
  // the 4-worker baseline so queueing effects are visible.
  const std::vector<double> rates = {480000, 620000, 450000};
  std::vector<std::string> core_labels;
  for (const int c : cores) core_labels.push_back(std::to_string(c) + "c");
  std::vector<std::string> cfg_labels;
  for (const auto& c : kCfgs) cfg_labels.emplace_back(c.label);

  metrics::RunConfig base;
  bench::apply_metrics(cli, &base);
  bench::apply_sched(cli, &base);

  exp::Sweep sweep("memcached");
  sweep.base(base)
      .axis("cores", core_labels,
             [&](metrics::RunConfig& rc, std::size_t ki) {
               rc.cpus = cores[ki];
               rc.sockets = cores[ki] > 8 ? 2 : 1;
             })
      .axis("config", cfg_labels,
            [](metrics::RunConfig& rc, std::size_t ci) {
              rc.features = kCfgs[ci].optimized ? core::Features::optimized()
                                                : core::Features::vanilla();
            });

  exp::ExperimentRunner runner(sweep, cli.runner_options());
  if (cli.list) {
    runner.list(std::cout);
    return 0;
  }

  bench::print_header("Figure 12", "memcached throughput and latency");
  const exp::Outcomes out = runner.run(
      [&](const exp::Cell& cell, const metrics::RunConfig& cfg) {
        return run_one(kCfgs[cell.at(1)].workers, rates[cell.at(0)], cfg,
                       cli.seed, cli.scale);
      });

  const std::vector<std::pair<const char*, const char*>> metrics_keys = {
      {"throughput(ops/s)", "tput_ops_s"},
      {"avg latency(us)", "avg_us"},
      {"p95 latency(us)", "p95_us"},
      {"p99 latency(us)", "p99_us"},
      {"p99.9 latency(us)", "p999_us"}};
  for (const auto& [title, key] : metrics_keys) {
    std::printf("\n--- %s ---\n", title);
    metrics::TablePrinter t({"cores", kCfgs[0].label, kCfgs[1].label,
                             kCfgs[2].label});
    for (std::size_t ki = 0; ki < cores.size(); ++ki) {
      std::vector<std::string> row = {std::to_string(cores[ki])};
      for (std::size_t ci = 0; ci < kCfgs.size(); ++ci) {
        const exp::CellOutcome& o = out.at({ki, ci});
        row.push_back(o.ran() ? metrics::TablePrinter::num(o.value(key), 0)
                              : "-");
      }
      t.add_row(row);
    }
    t.print();
  }

  exp::ResultDoc doc(spec.id, cli.scale, cli.seed);
  doc.add_sweep(sweep, out);
  const bool ok =
      bench::write_results(cli, doc) && bench::check_sweep_metrics(out, cli);
  return ok ? 0 : 1;
}
