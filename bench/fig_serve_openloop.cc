// Open-loop "planet-scale memcached" serving scenario (src/traffic).
//
// A fleet of simulated hosts, each running 16 epoll workers on 8 cores (2x
// thread oversubscription, the paper's memcached shape), serves open-loop
// arrivals across ~10^6 simulated connections at full scale. The headline
// comparison is VB/BWD on vs off across an offered-load sweep: closed-loop
// runs (fig12) hide queueing collapse because the client stops offering load
// when the server backs up, while the open-loop sweep shows tail latency
// (p99/p999) vs offered load directly — the regime where virtual blocking's
// cheap wakeups matter. Arrival axes cover Poisson, bursty on-off (MMPP),
// and diurnal-modulated intensity.
//
// `scale` multiplies fleet size (hosts x connections); 1.0 is the
// million-connection configuration (32 hosts x 32768 connections).
#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "traffic/fleet.h"
#include "traffic/slo.h"

using namespace eo;

namespace {

struct LoadPt {
  const char* label;
  double frac;  ///< offered load as a fraction of per-host CPU capacity
};
const std::vector<LoadPt> kLoads = {{"0.4x", 0.4},
                                    {"0.6x", 0.6},
                                    {"0.8x", 0.8},
                                    {"0.95x", 0.95},
                                    {"1.1x", 1.1}};

const std::vector<traffic::ArrivalKind> kArrivals = {
    traffic::ArrivalKind::kPoisson, traffic::ArrivalKind::kOnOff,
    traffic::ArrivalKind::kDiurnal};

struct Cfg {
  const char* label;
  bool optimized;
};
const std::vector<Cfg> kCfgs = {{"vanilla", false}, {"optimized", true}};

traffic::FleetConfig fleet_config(traffic::ArrivalKind kind, double load_frac,
                                  const metrics::RunConfig& cfg,
                                  std::uint64_t seed, double scale,
                                  std::size_t jobs,
                                  obs::ProgressSink* progress) {
  traffic::FleetConfig fc;
  fc.n_hosts = std::max(1, static_cast<int>(std::llround(32 * scale)));
  fc.host.n_connections = static_cast<std::uint32_t>(
      std::max(1024.0, std::round(32768 * scale)));
  fc.kernel = metrics::make_kernel_config(cfg);
  fc.arrival.kind = kind;
  // Bursts at 2x the mean keep the ON-state rate below capacity at the low
  // end of the load sweep, so the on-off curve shows a knee instead of
  // saturating in every cell (at 3x even 0.4x load bursts past capacity).
  fc.arrival.burst_factor = 2.0;
  // Offered load is capacity-relative: per-host CPU capacity is
  // cores / mean-request-cost, so the same fractions hit the same queueing
  // regimes regardless of the cost model.
  const double capacity_ops_s =
      static_cast<double>(cfg.cpus) * 1e9 / traffic::mean_request_cost_ns(fc.host);
  fc.arrival.rate_per_sec = load_frac * capacity_ops_s;
  fc.warmup = 10_ms;
  fc.window = 40_ms;
  fc.drain = 5_ms;
  fc.seed = seed;
  // --jobs also fans the per-host kernels inside each cell out onto host
  // threads (hosts are seed-independent; results merge in host order, so the
  // JSON is byte-identical for any jobs value).
  fc.jobs = jobs;
  fc.progress = progress;
  return fc;
}

exp::CellRun run_one(
    const exp::Cell& cell, traffic::ArrivalKind kind, double load_frac,
    const metrics::RunConfig& cfg, std::uint64_t seed, double scale,
    std::size_t jobs, obs::ProgressSink* progress,
    std::vector<std::shared_ptr<obs::FleetMetricsDoc>>* fleet_docs,
    std::vector<std::shared_ptr<obs::TaskstatsDoc>>* taskstats_docs) {
  const traffic::FleetConfig fc =
      fleet_config(kind, load_frac, cfg, seed, scale, jobs, progress);
  traffic::ConnectionFleet fleet(fc);
  const traffic::FleetResult fr = fleet.run();
  const traffic::SloPoint p = traffic::SloReporter::summarize(
      fc.arrival.rate_per_sec * fc.n_hosts, fr, fc.window + fc.drain);

  exp::CellRun r;
  r.run.completed = true;  // open-loop: the window always closes
  r.run.exec_time = fc.warmup + fc.window + fc.drain;
  r.run.stats = fr.stats;
  r.run.metrics = fr.metrics;
  // Cells write disjoint flat-indexed slots, so the parallel runner needs no
  // lock here and the slot layout is identical for every --jobs value.
  if (fleet_docs != nullptr) (*fleet_docs)[cell.flat] = fr.fleet_metrics;
  if (taskstats_docs != nullptr) (*taskstats_docs)[cell.flat] = fr.taskstats;
  if (cfg.taskstats) {
    // The fleet-merged blame decomposition, pinned into the cell extras so
    // the blame table is part of the golden-checked document (host-order
    // merge keeps it byte-identical across --jobs values).
    r.set("blame_requests", static_cast<double>(fr.blame.requests));
#define EO_BLAME_EXTRA(name) \
    r.set("blame_" #name "_ns", static_cast<double>(fr.blame.name));
    EO_SERVE_BLAME_FIELDS(EO_BLAME_EXTRA)
#undef EO_BLAME_EXTRA
  }
  r.set("offered_ops_s", p.offered_ops_s)
      .set("achieved_ops_s", p.achieved_ops_s)
      .set("shed_pct", p.shed_fraction * 100.0)
      .set("mean_us", p.mean_us)
      .set("p50_us", p.p50_us)
      .set("p99_us", p.p99_us)
      .set("p999_us", p.p999_us)
      .set("queue_p99_us", p.queue_p99_us)
      .set("service_p99_us", p.service_p99_us)
      .set("sched_delay_p99_us", p.sched_delay_p99_us)
      .set("connections", static_cast<double>(fr.total_connections))
      .set("active_connections", static_cast<double>(fr.active_connections));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliSpec spec{
      .id = "fig_serve_openloop",
      .summary =
          "open-loop million-connection serving: offered load vs tail latency",
      .default_scale = 0.1,
      .default_seed = 1234,
      .supports_fleet = true,
      .supports_taskstats_export = true};
  const bench::Cli cli = bench::Cli::parse(argc, argv, spec);

  std::vector<std::string> arrival_labels;
  for (const auto k : kArrivals) arrival_labels.emplace_back(to_string(k));
  std::vector<std::string> cfg_labels;
  for (const auto& c : kCfgs) cfg_labels.emplace_back(c.label);
  std::vector<std::string> load_labels;
  for (const auto& l : kLoads) load_labels.emplace_back(l.label);

  metrics::RunConfig base;
  base.cpus = 8;
  base.sockets = 1;
  bench::apply_metrics(cli, &base);
  bench::apply_sched(cli, &base);

  exp::Sweep sweep("serve_openloop");
  sweep.base(base)
      .axis("arrival", arrival_labels)
      .axis("config", cfg_labels,
            [](metrics::RunConfig& rc, std::size_t ci) {
              rc.features = kCfgs[ci].optimized ? core::Features::optimized()
                                                : core::Features::vanilla();
            })
      .axis("load", load_labels);

  // One sink shared by the runner (cell events) and every fleet (host
  // events), so the feed is a single interleaved stream.
  const exp::RunnerOptions ropts = cli.runner_options();
  obs::ProgressSink* sink = ropts.sink.get();
  exp::ExperimentRunner runner(sweep, ropts);
  if (cli.list) {
    runner.list(std::cout);
    return 0;
  }

  bench::print_header("serve_openloop",
                      "open-loop serving: offered load vs p99/p999");
  const std::size_t n_cells =
      arrival_labels.size() * cfg_labels.size() * load_labels.size();
  std::vector<std::shared_ptr<obs::FleetMetricsDoc>> fleet_docs(n_cells);
  std::vector<std::shared_ptr<obs::TaskstatsDoc>> taskstats_docs(n_cells);
  const exp::Outcomes out = runner.run(
      [&](const exp::Cell& cell, const metrics::RunConfig& cfg) {
        return run_one(cell, kArrivals[cell.at(0)], kLoads[cell.at(2)].frac,
                       cfg, cli.seed, cli.scale, cli.jobs, sink,
                       cli.metrics ? &fleet_docs : nullptr,
                       cli.taskstats ? &taskstats_docs : nullptr);
      });

  for (std::size_t ai = 0; ai < kArrivals.size(); ++ai) {
    bool any = false;
    for (std::size_t li = 0; li < kLoads.size() && !any; ++li) {
      for (std::size_t ci = 0; ci < kCfgs.size() && !any; ++ci) {
        any = out.at({ai, ci, li}).ran();
      }
    }
    if (!any) continue;
    std::printf("\n--- arrivals: %s ---\n", arrival_labels[ai].c_str());
    metrics::TablePrinter t({"load", "offered(Mops/s)", "p99 van(us)",
                             "p99 opt(us)", "p999 van(us)", "p999 opt(us)",
                             "shed% van", "shed% opt"});
    traffic::SloReporter rep_van;
    traffic::SloReporter rep_opt;
    for (std::size_t li = 0; li < kLoads.size(); ++li) {
      const exp::CellOutcome& van = out.at({ai, 0, li});
      const exp::CellOutcome& opt = out.at({ai, 1, li});
      const auto val = [](const exp::CellOutcome& o, const char* k) {
        return o.ran() ? metrics::TablePrinter::num(o.value(k), 1)
                       : std::string("-");
      };
      t.add_row({kLoads[li].label,
                 van.ran() ? metrics::TablePrinter::num(
                                 van.value("offered_ops_s") / 1e6, 2)
                           : "-",
                 val(van, "p99_us"), val(opt, "p99_us"), val(van, "p999_us"),
                 val(opt, "p999_us"), val(van, "shed_pct"),
                 val(opt, "shed_pct")});
      const auto point = [](const exp::CellOutcome& o) {
        traffic::SloPoint p;
        p.offered_ops_s = o.value("offered_ops_s");
        p.p99_us = o.value("p99_us");
        return p;
      };
      if (van.ran()) rep_van.add(point(van));
      if (opt.ran()) rep_opt.add(point(opt));
    }
    t.print();
    constexpr double kSloUs = 1000.0;  // 1 ms p99 SLO
    std::printf("SLO capacity (p99 <= %.0f us): vanilla %.2f Mops/s, "
                "optimized %.2f Mops/s\n",
                kSloUs, rep_van.max_load_within(kSloUs) / 1e6,
                rep_opt.max_load_within(kSloUs) / 1e6);

    if (cli.taskstats) {
      // Critical-path blame: where each config's request latency goes, as a
      // share of the summed latency over the window. Reading vanilla vs
      // optimized side by side shows WHY p99 moves — wake_sleep (vanilla
      // futex/epoll sleeps) turning into wake_park + smaller rq_wait under
      // VB, or skip_delay appearing when BWD fires.
      std::printf("\nlatency blame (%% of summed request latency):\n");
      metrics::TablePrinter bt({"load", "config", "backlog", "wake_park",
                                "wake_sleep", "rq_wait", "skip_delay",
                                "service_cpu", "other"});
      for (std::size_t li = 0; li < kLoads.size(); ++li) {
        for (std::size_t ci = 0; ci < kCfgs.size(); ++ci) {
          const exp::CellOutcome& o = out.at({ai, ci, li});
          if (!o.ran()) continue;
          double tot = 0;
#define EO_BLAME_TOT(name) tot += o.value("blame_" #name "_ns");
          EO_SERVE_BLAME_FIELDS(EO_BLAME_TOT)
#undef EO_BLAME_TOT
          const auto pct = [&](const char* key) {
            return tot > 0 ? metrics::TablePrinter::num(
                                 o.value(key) / tot * 100.0, 1)
                           : std::string("-");
          };
          bt.add_row({kLoads[li].label, kCfgs[ci].label,
                      pct("blame_backlog_ns"), pct("blame_wake_park_ns"),
                      pct("blame_wake_sleep_ns"), pct("blame_rq_wait_ns"),
                      pct("blame_skip_delay_ns"), pct("blame_service_cpu_ns"),
                      pct("blame_other_ns")});
        }
      }
      bt.print();
    }
  }

  exp::ResultDoc doc(spec.id, cli.scale, cli.seed);
  doc.add_sweep(sweep, out);
  bool ok = bench::write_results(cli, doc);
  ok = bench::check_sweep_metrics(out, cli) && ok;
  ok = bench::check_fleet_metrics(fleet_docs, out, cli) && ok;
  if (!cli.taskstats_path.empty()) {
    // Folded state flamegraph of the first ran cell's representative host.
    std::shared_ptr<obs::TaskstatsDoc> rep;
    for (const auto& o : out) {
      if (o.ran() && taskstats_docs[o.cell.flat]) {
        rep = taskstats_docs[o.cell.flat];
        break;
      }
    }
    ok = bench::export_taskstats_folded(rep, cli, "serve_openloop") && ok;
  }
  return ok ? 0 : 1;
}
