// Uniform command line for the bench binaries.
//
//   <bench> [scale] [--json=<path>] [--jobs=N] [--filter=<substr>] [--list]
//           [--seed=N] [--sched=cfs|fifo|rr|pcfs] [--trace=<path>]
//           [--trace-format=json|csv] [--trace-only] [--metrics[=<path>]]
//           [--metrics-interval=<us>] [--metrics-format=json|csv|report]
//           [--taskstats[=<path>]] [--help]
//
// The positional `scale` multiplies the simulated work (rounds, requests);
// it must be a plain positive number — `0.5x` or `abc` are errors, not
// silently coerced. Every argument error prints the usage text to stderr and
// exits with status 2; `--help` prints it to stdout and exits 0.
#pragma once

#include <cstdint>
#include <string>

#include "exp/runner.h"

namespace eo::exp {

/// Static description of one bench binary.
struct CliSpec {
  /// Bench id, e.g. "fig09_vb_blocking" (names the JSON document).
  std::string id;
  /// One-line description shown in the usage text.
  std::string summary;
  double default_scale = 1.0;
  std::uint64_t default_seed = 7;
  /// Whether the bench accepts the --trace* flags.
  bool supports_trace = false;
  /// Whether the bench accepts the --fleet-metrics flag (benches that run a
  /// traffic::ConnectionFleet and can emit an eo-metrics-fleet document).
  bool supports_fleet = false;
  /// Whether the bench writes a folded state flamegraph for
  /// --taskstats=<path>; elsewhere only the bare --taskstats is accepted.
  bool supports_taskstats_export = false;
};

class Cli {
 public:
  double scale = 1.0;
  std::uint64_t seed = 7;
  /// Host threads for the sweep fan-out (0 = hardware_concurrency).
  std::size_t jobs = 0;
  /// Destination for the machine-readable result document; empty = off.
  std::string json_path;
  /// Substring filter on cell ids; empty runs everything.
  std::string filter;
  /// Print the cell ids and exit without running.
  bool list = false;
  /// Scheduler discipline for every simulated kernel the bench builds
  /// (one of sched::policy_names()).
  std::string sched = "cfs";
  std::string trace_path;  ///< empty = tracing off
  std::string trace_format = "json";
  bool trace_only = false;
  /// Live telemetry (src/obs): --metrics enables per-cell sampling;
  /// --metrics=<path> additionally exports one representative full document.
  bool metrics = false;
  std::string metrics_path;  ///< empty = no standalone export
  std::uint64_t metrics_interval_us = 1000;
  std::string metrics_format = "json";
  /// Live progress feed: "line" (human stderr lines, the default), "jsonl"
  /// (one JSON event per line, machine-readable), or "none".
  std::string progress = "line";
  /// Fleet observability (--fleet-metrics, benches with supports_fleet):
  /// retain every host's telemetry and merge it into one eo-metrics-fleet
  /// document; with a path, export the merged document there. Implies
  /// --metrics.
  bool fleet_metrics = false;
  std::string fleet_metrics_path;  ///< empty = no standalone export
  /// Per-task delay accounting (--taskstats): embed the `eo-taskstats`
  /// section in every exported metrics document; with a path (benches with
  /// supports_taskstats_export only), additionally export a folded-stack
  /// state flamegraph there. Implies --metrics.
  bool taskstats = false;
  std::string taskstats_path;  ///< empty = no folded-stack export

  bool tracing() const { return !trace_path.empty(); }

  /// Runner options carrying jobs/filter and a fresh sink for `--progress`
  /// (null for "none"). A bench that also feeds fleets hands them this sink,
  /// so the feed stays one stream.
  RunnerOptions runner_options() const;

  /// Usage text for the spec (the --help / error output).
  static std::string usage(const CliSpec& spec);

  /// Parses into `out`; returns false with a reason in `err` on any argument
  /// error. Does not print or exit (the testable core of `parse`).
  static bool parse_into(int argc, char** argv, const CliSpec& spec, Cli* out,
                         std::string* err);

  /// Parses or dies: argument errors print the reason + usage to stderr and
  /// exit 2; `--help` prints usage to stdout and exits 0.
  static Cli parse(int argc, char** argv, const CliSpec& spec);
};

}  // namespace eo::exp
