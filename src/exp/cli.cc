#include "exp/cli.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "sched/policy.h"

namespace eo::exp {

namespace {

/// Strict positive-double parse: the whole string must be consumed.
bool parse_scale_str(const std::string& s, double* out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size() || s.empty()) return false;
  if (!(v > 0)) return false;
  *out = v;
  return true;
}

/// Strict non-negative integer parse.
bool parse_uint_str(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  if (s[0] == '-' || s[0] == '+') return false;
  *out = v;
  return true;
}

/// "cfs|fifo|rr|pcfs" from the policy registry, for messages.
std::string policy_list() {
  std::string out;
  for (const auto& name : sched::policy_names()) {
    if (!out.empty()) out += '|';
    out += name;
  }
  return out;
}

}  // namespace

RunnerOptions Cli::runner_options() const {
  RunnerOptions o;
  o.jobs = jobs;
  o.filter = filter;
  o.sink = obs::make_progress_sink(progress);
  return o;
}

std::string Cli::usage(const CliSpec& spec) {
  std::ostringstream os;
  os << "usage: " << spec.id << " [scale] [options]\n"
     << "  " << spec.summary << "\n\n"
     << "  scale                positive work multiplier (default "
     << spec.default_scale << ")\n"
     << "  --json=<path>        write the result grid as a versioned JSON "
        "document\n"
     << "  --jobs=N             host threads for the sweep (default: all "
        "cores)\n"
     << "  --filter=<substr>    run only cells whose id contains <substr>\n"
     << "  --list               print the cell ids and exit\n"
     << "  --seed=N             workload seed (default " << spec.default_seed
     << ")\n"
     << "  --sched=<policy>     scheduler policy: " << policy_list()
     << " (default cfs)\n";
  if (spec.supports_trace) {
    os << "  --trace=<path>       capture an event trace of one "
          "representative run\n"
       << "  --trace-format=F     trace export format: json|csv (default "
          "json)\n"
       << "  --trace-only         skip the figure grid, run only the traced "
          "config\n";
  }
  os << "  --metrics[=<path>]   sample live telemetry per run; with a path, "
        "also\n"
        "                       export one representative eo-metrics "
        "document\n"
     << "  --metrics-interval=<us>\n"
        "                       sampling period in simulated microseconds "
        "(default 1000)\n"
     << "  --metrics-format=F   metrics export format: json|csv|report "
        "(default json)\n";
  if (spec.supports_fleet) {
    os << "  --fleet-metrics[=<path>]\n"
          "                       merge every host's telemetry into one\n"
          "                       eo-metrics-fleet document (implies "
          "--metrics);\n"
          "                       with a path, export the merged document\n";
  }
  os << (spec.supports_taskstats_export ? "  --taskstats[=<path>]"
                                         : "  --taskstats         ")
     << " per-task delay accounting: embed the eo-taskstats\n"
        "                       section in metrics documents (implies "
        "--metrics);\n"
     << (spec.supports_taskstats_export
             ? "                       with a path, export a folded state "
               "flamegraph\n"
             : "                       this bench writes no folded "
               "flamegraph\n");
  os << "  --progress=MODE      live progress feed: none|line|jsonl "
        "(default line)\n"
     << "  --help               show this help\n";
  return os.str();
}

bool Cli::parse_into(int argc, char** argv, const CliSpec& spec, Cli* out,
                     std::string* err) {
  out->scale = spec.default_scale;
  out->seed = spec.default_seed;
  bool have_scale = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.empty()) continue;
    if (arg[0] != '-') {
      if (have_scale) {
        *err = "unexpected extra positional argument '" + arg + "'";
        return false;
      }
      if (!parse_scale_str(arg, &out->scale)) {
        *err = "invalid scale '" + arg + "' (want a positive number)";
        return false;
      }
      have_scale = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      out->json_path = arg.substr(7);
      if (out->json_path.empty()) {
        *err = "empty --json= path";
        return false;
      }
    } else if (arg.rfind("--jobs=", 0) == 0) {
      std::uint64_t n = 0;
      if (!parse_uint_str(arg.substr(7), &n)) {
        *err = "invalid --jobs value '" + arg.substr(7) +
               "' (want a non-negative integer)";
        return false;
      }
      out->jobs = static_cast<std::size_t>(n);
    } else if (arg.rfind("--filter=", 0) == 0) {
      out->filter = arg.substr(9);
    } else if (arg == "--list") {
      out->list = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!parse_uint_str(arg.substr(7), &out->seed)) {
        *err = "invalid --seed value '" + arg.substr(7) +
               "' (want a non-negative integer)";
        return false;
      }
    } else if (arg.rfind("--sched=", 0) == 0) {
      out->sched = arg.substr(8);
      const auto& names = sched::policy_names();
      bool known = false;
      for (const auto& name : names) known = known || name == out->sched;
      if (!known) {
        *err = "--sched must be one of " + policy_list() + " (got '" +
               out->sched + "')";
        return false;
      }
    } else if (spec.supports_trace && arg.rfind("--trace=", 0) == 0) {
      out->trace_path = arg.substr(8);
      if (out->trace_path.empty()) {
        *err = "empty --trace= path";
        return false;
      }
    } else if (spec.supports_trace && arg.rfind("--trace-format=", 0) == 0) {
      out->trace_format = arg.substr(15);
      if (out->trace_format != "json" && out->trace_format != "csv") {
        *err = "--trace-format must be 'json' or 'csv' (got '" +
               out->trace_format + "')";
        return false;
      }
    } else if (spec.supports_trace && arg == "--trace-only") {
      out->trace_only = true;
    } else if (arg == "--metrics") {
      out->metrics = true;
    } else if (arg.rfind("--metrics=", 0) == 0) {
      out->metrics = true;
      out->metrics_path = arg.substr(10);
      if (out->metrics_path.empty()) {
        *err = "empty --metrics= path";
        return false;
      }
    } else if (arg.rfind("--metrics-interval=", 0) == 0) {
      if (!parse_uint_str(arg.substr(19), &out->metrics_interval_us) ||
          out->metrics_interval_us == 0) {
        *err = "invalid --metrics-interval value '" + arg.substr(19) +
               "' (want a positive integer, microseconds)";
        return false;
      }
    } else if (spec.supports_fleet && arg == "--fleet-metrics") {
      out->fleet_metrics = true;
      out->metrics = true;
    } else if (spec.supports_fleet && arg.rfind("--fleet-metrics=", 0) == 0) {
      out->fleet_metrics = true;
      out->metrics = true;
      out->fleet_metrics_path = arg.substr(16);
      if (out->fleet_metrics_path.empty()) {
        *err = "empty --fleet-metrics= path";
        return false;
      }
    } else if (arg == "--taskstats") {
      out->taskstats = true;
      out->metrics = true;
    } else if (arg.rfind("--taskstats=", 0) == 0) {
      if (!spec.supports_taskstats_export) {
        *err = "--taskstats=<path>: " + spec.id +
               " writes no folded export (use --taskstats)";
        return false;
      }
      out->taskstats = true;
      out->metrics = true;
      out->taskstats_path = arg.substr(12);
      if (out->taskstats_path.empty()) {
        *err = "empty --taskstats= path";
        return false;
      }
    } else if (arg.rfind("--progress=", 0) == 0) {
      out->progress = arg.substr(11);
      if (out->progress != "none" && out->progress != "line" &&
          out->progress != "jsonl") {
        *err = "--progress must be 'none', 'line', or 'jsonl' (got '" +
               out->progress + "')";
        return false;
      }
    } else if (arg.rfind("--metrics-format=", 0) == 0) {
      out->metrics_format = arg.substr(17);
      if (out->metrics_format != "json" && out->metrics_format != "csv" &&
          out->metrics_format != "report") {
        *err = "--metrics-format must be 'json', 'csv', or 'report' (got '" +
               out->metrics_format + "')";
        return false;
      }
    } else {
      *err = "unknown flag '" + arg + "'";
      return false;
    }
  }
  return true;
}

Cli Cli::parse(int argc, char** argv, const CliSpec& spec) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--help") {
      std::fputs(usage(spec).c_str(), stdout);
      std::exit(0);
    }
  }
  Cli cli;
  std::string err;
  if (!parse_into(argc, argv, spec, &cli, &err)) {
    std::fprintf(stderr, "%s: error: %s\n\n%s", spec.id.c_str(), err.c_str(),
                 usage(spec).c_str());
    std::exit(2);
  }
  return cli;
}

}  // namespace eo::exp
