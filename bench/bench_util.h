// Shared helpers for the bench harnesses.
//
// Every bench binary regenerates one table or figure from the paper. All of
// them share the `exp::Cli` command line (see src/exp/cli.h):
//
//   <bench> [scale] [--json=<path>] [--jobs=N] [--filter=<substr>] [--list]
//           [--seed=N] [--sched=cfs|fifo|rr|pcfs] [--trace=<path>]
//           [--trace-format=json|csv] [--trace-only] [--metrics[=<path>]]
//           [--metrics-interval=<us>] [--metrics-format=json|csv|report]
//           [--fleet-metrics[=<path>]] [--taskstats[=<path>]]
//           [--progress=none|line|jsonl] [--help]
//
// The positional scale multiplies the simulated round counts, so
// `./fig09_vb_blocking 1.0` runs the full-length experiment and the default
// keeps `for b in build/bench/*; do $b; done` quick. `--json` writes the
// result grid as a schema-validated document (see src/exp/result.h).
#pragma once

#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include <memory>

#include "exp/cli.h"
#include "exp/result.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "metrics/experiment.h"
#include "metrics/table_printer.h"
#include "obs/export.h"
#include "obs/fleet_agg.h"
#include "obs/sampler.h"
#include "trace/export.h"
#include "trace/timeline.h"
#include "trace/trace.h"

namespace eo::bench {

using Cli = exp::Cli;
using CliSpec = exp::CliSpec;

/// Writes the result document when `--json` was given. Returns false (after
/// printing the reason) if the document fails validation or the write fails;
/// true when `--json` is off or the write succeeds.
inline bool write_results(const Cli& cli, const exp::ResultDoc& doc) {
  if (cli.json_path.empty()) return true;
  std::string err;
  if (!doc.write(cli.json_path, &err)) {
    std::fprintf(stderr, "json: writing %s failed: %s\n",
                 cli.json_path.c_str(), err.c_str());
    return false;
  }
  std::printf("json: wrote %s\n", cli.json_path.c_str());
  return true;
}

/// Exports the run's trace per the --trace* flags and cross-checks it: every
/// kind in `required` must be present, and the TimelineAnalyzer's
/// wakeup-latency quantiles must agree with the kernel's own histogram
/// within 1%. Returns false (after printing the reason) on any failure; true
/// when tracing is off or everything checks out.
inline bool export_and_check_trace(
    const metrics::RunResult& r, const Cli& cli,
    std::initializer_list<trace::EventKind> required) {
  if (!cli.tracing()) return true;
  if (!r.trace) {
    std::fprintf(stderr,
                 "trace: run captured no trace (tracing not enabled on the "
                 "run)\n");
    return false;
  }
  const trace::Trace& tr = *r.trace;
  std::string err;
  if (!trace::export_to_file(tr, cli.trace_path, cli.trace_format, &err)) {
    std::fprintf(stderr, "trace: export failed: %s\n", err.c_str());
    return false;
  }
  std::printf("trace: wrote %zu events (%llu dropped) to %s [%s]\n",
              tr.events.size(),
              static_cast<unsigned long long>(tr.dropped),
              cli.trace_path.c_str(), cli.trace_format.c_str());

  bool ok = true;
  std::vector<std::uint64_t> counts(
      static_cast<std::size_t>(trace::EventKind::kCount), 0);
  for (const auto& e : tr.events) {
    if (e.kind < counts.size()) ++counts[e.kind];
  }
  for (const trace::EventKind k : required) {
    if (counts[static_cast<std::size_t>(k)] == 0) {
      std::fprintf(stderr, "trace: required event kind '%s' is absent\n",
                   trace::to_string(k));
      ok = false;
    }
  }

  const trace::TimelineStats tl = trace::TimelineAnalyzer::analyze(tr);
  const auto close = [](std::int64_t a, std::int64_t b) {
    const double da = static_cast<double>(a);
    const double db = static_cast<double>(b);
    return std::fabs(da - db) <=
           0.01 * std::max(std::fabs(da), std::fabs(db)) + 1e-9;
  };
  std::printf("trace: wakeup latency p50=%lld ns p99=%lld ns over %llu "
              "wakeups (kernel: p50=%lld p99=%lld over %llu)\n",
              static_cast<long long>(tl.wakeup_latency.p50()),
              static_cast<long long>(tl.wakeup_latency.p99()),
              static_cast<unsigned long long>(tl.wakeup_latency.total_count()),
              static_cast<long long>(r.wakeup_latency.p50()),
              static_cast<long long>(r.wakeup_latency.p99()),
              static_cast<unsigned long long>(
                  r.wakeup_latency.total_count()));
  if (tr.dropped == 0) {
    // With no ring overwrites the trace holds every wakeup, so the analyzer
    // must reproduce the kernel's histogram.
    if (!close(tl.wakeup_latency.p50(), r.wakeup_latency.p50()) ||
        !close(tl.wakeup_latency.p99(), r.wakeup_latency.p99())) {
      std::fprintf(stderr,
                   "trace: analyzer wakeup-latency quantiles diverge >1%% "
                   "from the kernel histogram\n");
      ok = false;
    }
  }
  return ok;
}

/// Sampler configuration per the --metrics* flags (disabled when --metrics
/// was not given).
inline obs::SamplerConfig metrics_config(const Cli& cli) {
  obs::SamplerConfig mc;
  mc.enabled = cli.metrics;
  mc.interval = static_cast<SimDuration>(cli.metrics_interval_us) * 1_us;
  return mc;
}

/// Applies the --metrics* flags to a RunConfig (for benches building sweeps).
inline void apply_metrics(const Cli& cli, metrics::RunConfig* cfg) {
  cfg->metrics = metrics_config(cli);
  cfg->taskstats = cli.taskstats;
}

/// Exports the folded-stack state flamegraph when --taskstats=<path> was
/// given. `workload` becomes the root frame. Returns true when no path was
/// requested or the export succeeds.
inline bool export_taskstats_folded(
    const std::shared_ptr<obs::TaskstatsDoc>& doc, const Cli& cli,
    const std::string& workload) {
  if (cli.taskstats_path.empty()) return true;
  if (!doc) {
    std::fprintf(stderr, "taskstats: run captured no per-task accounting\n");
    return false;
  }
  std::string err;
  if (!obs::export_folded_to_file(*doc, workload, cli.taskstats_path, &err)) {
    std::fprintf(stderr, "taskstats: export failed: %s\n", err.c_str());
    return false;
  }
  std::printf("taskstats: wrote folded stacks for %zu task(s) to %s\n",
              doc->tasks.size(), cli.taskstats_path.c_str());
  return true;
}

/// Applies the --sched flag to a RunConfig, so every kernel the bench builds
/// runs under the selected scheduler discipline.
inline void apply_sched(const Cli& cli, metrics::RunConfig* cfg) {
  cfg->sched = cli.sched;
}

/// Checks the run's telemetry and, when --metrics=<path> was given, exports
/// the eo-metrics document in the requested format. Any recorded watchdog
/// violation fails the bench. Returns true when --metrics is off or
/// everything checks out.
inline bool export_and_check_metrics(const metrics::RunResult& r,
                                     const Cli& cli) {
  if (!cli.metrics) return true;
  if (!r.metrics) {
    std::fprintf(stderr, "metrics: run captured no telemetry (sampler not "
                         "enabled on the run)\n");
    return false;
  }
  const obs::MetricsDoc& m = *r.metrics;
  if (m.watchdog_violations != 0) {
    std::fprintf(stderr,
                 "metrics: watchdog recorded %llu invariant violation(s) "
                 "over %llu checks\n",
                 static_cast<unsigned long long>(m.watchdog_violations),
                 static_cast<unsigned long long>(m.watchdog_checks));
    for (const auto& v : m.violation_records) {
      std::fprintf(stderr, "metrics:   t=%lld %s: %s\n",
                   static_cast<long long>(v.ts), v.invariant.c_str(),
                   v.detail.c_str());
    }
    return false;
  }
  std::printf("metrics: %llu samples (%llu dropped), %llu watchdog checks, "
              "0 violations\n",
              static_cast<unsigned long long>(m.ticks),
              static_cast<unsigned long long>(m.dropped_ticks),
              static_cast<unsigned long long>(m.watchdog_checks));
  if (cli.metrics_path.empty()) return true;
  std::string err;
  if (!obs::export_to_file(m, cli.metrics_path, cli.metrics_format, &err)) {
    std::fprintf(stderr, "metrics: export failed: %s\n", err.c_str());
    return false;
  }
  std::printf("metrics: wrote %s [%s]\n", cli.metrics_path.c_str(),
              cli.metrics_format.c_str());
  return true;
}

/// Sweep-level telemetry check: every ran cell must report zero watchdog
/// violations, and one representative cell's document is exported per the
/// --metrics* flags. Returns true when --metrics is off or all cells pass.
inline bool check_sweep_metrics(const exp::Outcomes& out, const Cli& cli) {
  if (!cli.metrics) return true;
  const metrics::RunResult* rep = nullptr;
  bool ok = true;
  for (const auto& o : out) {
    if (!o.ran() || !o.run.metrics) continue;
    if (!rep) rep = &o.run;
    const obs::MetricsDoc& m = *o.run.metrics;
    if (m.watchdog_violations != 0) {
      std::fprintf(stderr,
                   "metrics: cell '%s': %llu watchdog violation(s)\n",
                   o.cell.id().c_str(),
                   static_cast<unsigned long long>(m.watchdog_violations));
      ok = false;
    }
  }
  if (!rep) {
    std::fprintf(stderr, "metrics: no cell captured telemetry\n");
    return false;
  }
  return export_and_check_metrics(*rep, cli) && ok;
}

/// Fleet-level telemetry check (--fleet-metrics benches): every ran cell
/// must carry a merged eo-metrics-fleet document with zero watchdog
/// violations; one representative document (first ran cell in flat order) is
/// summarized for imbalance and exported when a path was given. `docs` is
/// indexed by cell flat index. Returns true when --fleet-metrics is off or
/// everything checks out.
inline bool check_fleet_metrics(
    const std::vector<std::shared_ptr<obs::FleetMetricsDoc>>& docs,
    const exp::Outcomes& out, const Cli& cli) {
  if (!cli.fleet_metrics) return true;
  const obs::FleetMetricsDoc* rep = nullptr;
  bool ok = true;
  for (const auto& o : out) {
    if (!o.ran()) continue;
    const auto& d = docs[o.cell.flat];
    if (!d) {
      std::fprintf(stderr, "fleet-metrics: cell '%s' captured no fleet "
                           "telemetry\n",
                   o.cell.id().c_str());
      ok = false;
      continue;
    }
    if (!rep) rep = d.get();
    if (d->watchdog_violations != 0) {
      std::fprintf(stderr,
                   "fleet-metrics: cell '%s': %llu watchdog violation(s)\n",
                   o.cell.id().c_str(),
                   static_cast<unsigned long long>(d->watchdog_violations));
      for (const auto& v : d->violation_records) {
        std::fprintf(stderr, "fleet-metrics:   t=%lld %s: %s\n",
                     static_cast<long long>(v.ts), v.invariant.c_str(),
                     v.detail.c_str());
      }
      ok = false;
    }
  }
  if (!rep) {
    std::fprintf(stderr, "fleet-metrics: no cell captured fleet telemetry\n");
    return false;
  }
  // Imbalance summary across the representative cell's hosts.
  std::int64_t p99_min = 0, p99_max = 0;
  std::uint64_t shed_max = 0;
  for (std::size_t h = 0; h < rep->hosts.size(); ++h) {
    const obs::FleetHostEntry& e = rep->hosts[h];
    if (h == 0 || e.p99_ns < p99_min) p99_min = e.p99_ns;
    if (h == 0 || e.p99_ns > p99_max) p99_max = e.p99_ns;
    if (e.shed > shed_max) shed_max = e.shed;
  }
  std::printf("fleet-metrics: %d hosts, host p99 %.1f-%.1f us, max "
              "host shed %llu, %llu watchdog checks\n",
              rep->n_hosts, static_cast<double>(p99_min) / 1e3,
              static_cast<double>(p99_max) / 1e3,
              static_cast<unsigned long long>(shed_max),
              static_cast<unsigned long long>(rep->watchdog_checks));
  if (cli.fleet_metrics_path.empty()) return ok;
  std::string err;
  if (!obs::export_fleet_to_file(*rep, cli.fleet_metrics_path, &err)) {
    std::fprintf(stderr, "fleet-metrics: export failed: %s\n", err.c_str());
    return false;
  }
  std::printf("fleet-metrics: wrote %s\n", cli.fleet_metrics_path.c_str());
  return ok;
}

inline void print_header(const char* id, const char* what) {
  std::printf("=== %s: %s ===\n", id, what);
}

inline std::string ratio(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

inline std::string ms(SimDuration d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", to_ms(d));
  return buf;
}

}  // namespace eo::bench
