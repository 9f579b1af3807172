// Policy zoo: the oversubscription experiment of Figure 9 repeated under
// every registered scheduler discipline (cfs, fifo, rr, pcfs), vanilla and
// optimized. The zoo exercises every row of the policy table in
// src/sched/policy.cc: each discipline must run the same 32-thread/8-core
// blocking workloads to completion, keep VB parking and BWD skipping
// working (optimized column), and stay watchdog-clean under --metrics.
// Expected: cfs and pcfs behave near-identically (the predictive bias only
// breaks vruntime ties); fifo and rr finish the run but with visibly worse
// balance under oversubscription.
#include <iostream>

#include "bench_util.h"
#include "sched/policy.h"
#include "workloads/suite.h"

using namespace eo;

int main(int argc, char** argv) {
  const bench::CliSpec spec{
      .id = "fig_policy_zoo",
      .summary = "blocking benchmarks under every scheduler policy "
                 "(exec time, ms)",
      .default_scale = 0.2};
  const bench::Cli cli = bench::Cli::parse(argc, argv, spec);

  // cg mixes futex blocking (VB parks) with tight spin loops (BWD skips);
  // streamcluster is barrier-heavy. Together they exercise every contract a
  // policy has to uphold.
  const std::vector<std::string> names = {"cg", "streamcluster"};
  const std::vector<std::string> policies = sched::policy_names();
  const std::vector<std::string> feature_labels = {"32T(van-8c)",
                                                   "32T(opt-8c)"};

  metrics::RunConfig base;
  base.cpus = 8;
  base.sockets = 2;
  base.deadline = 600_s;
  bench::apply_metrics(cli, &base);
  bench::apply_sched(cli, &base);

  exp::Sweep sweep("policy_zoo");
  sweep.base(base)
      .axis("benchmark", names)
      .axis("policy", policies,
            [&](metrics::RunConfig& rc, std::size_t pi) {
              rc.sched = policies[pi];
            })
      .axis("config", feature_labels,
            [](metrics::RunConfig& rc, std::size_t fi) {
              rc.features = fi == 1 ? core::Features::optimized()
                                    : core::Features::vanilla();
            });

  exp::ExperimentRunner runner(sweep, cli.runner_options());
  if (cli.list) {
    runner.list(std::cout);
    return 0;
  }

  bench::print_header("Policy zoo",
                      "blocking benchmarks under every scheduler policy");
  const exp::Outcomes out = runner.run(
      [&](const exp::Cell& cell, const metrics::RunConfig& cfg) {
        const auto& bspec = workloads::find_benchmark(names[cell.at(0)]);
        metrics::RunConfig rc = cfg;
        rc.ref_footprint = bspec.ref_footprint();
        return metrics::run_experiment(rc, [&](kern::Kernel& k) {
          workloads::spawn_benchmark(k, bspec, 32, cli.seed, cli.scale);
        });
      });

  for (std::size_t bi = 0; bi < names.size(); ++bi) {
    metrics::TablePrinter table(
        {names[bi], "32T(van-8c)", "32T(opt-8c)", "opt/van"});
    for (std::size_t pi = 0; pi < policies.size(); ++pi) {
      const auto& van = out.at({bi, pi, 0});
      const auto& opt = out.at({bi, pi, 1});
      std::vector<std::string> row = {policies[pi]};
      row.push_back(van.ran() ? bench::ms(van.run.exec_time) : "-");
      row.push_back(opt.ran() ? bench::ms(opt.run.exec_time) : "-");
      row.push_back(van.ran() && opt.ran() ? bench::ratio(opt.ms() / van.ms())
                                           : "-");
      table.add_row(row);
    }
    table.print();
  }
  std::printf("(exec time in ms; opt/van < 1 means VB+BWD helped under that "
              "policy)\n");

  exp::ResultDoc doc(spec.id, cli.scale, cli.seed);
  doc.add_sweep(sweep, out);
  bool ok = bench::write_results(cli, doc);
  if (cli.metrics) {
    ok = bench::check_sweep_metrics(out, cli) && ok;
  }
  return ok ? 0 : 1;
}
