// perfbench: the repository benchmark.
//
//   perfbench --workload blocking|spin|serve [--seed N] [--seconds S]
//             [--trace 0|1] [--jobs N] [--scale X] [--deadline-ms MS]
//             [--spans-dir DIR]
//
// Untraced (--trace 0): one warm-up round, then timed rounds until --seconds
// have passed. Prints the end-to-end metrics (medians over the timed rounds)
// and, as the last line, one JSON object with `correct`, `attempted`,
// `failed` and `metrics`.
//
// Traced (--trace 1): half the time alternates untraced and traced rounds of
// the workload (traced rounds record spans around every call and read the
// layer counts), the other half climbs the layer ladder. Prints the
// per-layer metrics the same way.
//
// Every run also prints `digest <workload> <hex>`: a hash of every simulated
// result of a round. It depends only on the workload, --seed and --scale.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ladder.h"
#include "stats.h"
#include "workloads.h"

using namespace perfbench;

namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload blocking|spin|serve [--seed N] [--seconds S]\n"
    "                 [--trace 0|1] [--jobs N] [--scale X] [--deadline-ms MS]\n"
    "                 [--spans-dir DIR]\n"
    "  --seed N         workload inputs (default 1)\n"
    "  --seconds S      measured time, 1..600 (default 10)\n"
    "  --trace 0|1      0: end-to-end metrics; 1: per-layer metrics\n"
    "  --jobs N         host threads, 1..nproc (default 1)\n"
    "  --scale X        workload size multiplier, (0, 16] (default 1)\n"
    "  --deadline-ms MS simulated deadline override for blocking/spin\n"
    "  --spans-dir DIR  traced run: write its spans (Chrome trace JSON) here\n";

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n%s", why.c_str(), kUsage);
  std::exit(2);
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s[0] == '-' || s[0] == '+') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end == s.c_str() || *end != '\0' || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  const int max_jobs =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    }
    if (a.rfind("--", 0) != 0) usage_error("unexpected argument '" + a + "'");
    std::string key = a;
    std::string val;
    const auto eq = a.find('=');
    if (eq != std::string::npos) {
      key = a.substr(0, eq);
      val = a.substr(eq + 1);
    } else {
      if (i + 1 >= argc) usage_error("missing value for " + a);
      val = argv[++i];
    }
    std::uint64_t u = 0;
    double d = 0.0;
    if (key == "--workload") {
      bool known = false;
      for (const auto& w : workload_names()) known = known || w == val;
      if (!known) usage_error("unknown workload '" + val + "'");
      o.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      if (!parse_u64(val, &u)) usage_error("bad --seed '" + val + "'");
      o.seed = u;
    } else if (key == "--seconds") {
      if (!parse_u64(val, &u) || u < 1 || u > 600) {
        usage_error("bad --seconds '" + val + "'");
      }
      o.seconds = static_cast<int>(u);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage_error("bad --trace '" + val + "'");
      o.trace = val == "1";
    } else if (key == "--jobs") {
      if (!parse_u64(val, &u) || u < 1 ||
          u > static_cast<std::uint64_t>(max_jobs)) {
        usage_error("bad --jobs '" + val + "'");
      }
      o.jobs = static_cast<int>(u);
    } else if (key == "--scale") {
      if (!parse_double(val, &d) || d <= 0.0 || d > 16.0) {
        usage_error("bad --scale '" + val + "'");
      }
      o.scale = d;
    } else if (key == "--deadline-ms") {
      if (!parse_double(val, &d) || d <= 0.0) {
        usage_error("bad --deadline-ms '" + val + "'");
      }
      o.deadline_ms = d;
    } else if (key == "--spans-dir") {
      if (val.empty()) usage_error("empty --spans-dir");
      o.spans_dir = val;
    } else {
      usage_error("unknown option '" + key + "'");
    }
  }
  if (!have_workload) usage_error("--workload is required");
  return o;
}

/// Peak resident memory of this process image. VmHWM, unlike ru_maxrss,
/// starts afresh at exec, so the launcher that exec'd us is not counted.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib > 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Tallies operations across every round of the run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t first_digest = 0;
  bool have_digest = false;
  bool nondeterministic = false;
  std::set<std::string> seen;  ///< failure lines already printed

  void add(const RoundResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& f : r.failures) {
      if (seen.insert(f).second) std::printf("FAILED %s\n", f.c_str());
    }
    if (!have_digest) {
      first_digest = r.digest;
      have_digest = true;
    } else if (r.digest != first_digest) {
      // Same inputs, different simulated results: every operation of the
      // round is suspect.
      if (!nondeterministic) {
        std::printf("FAILED digest changed between rounds at a fixed seed\n");
      }
      nondeterministic = true;
      failed += r.attempted - r.failed;
    }
  }
};

/// Per-operation host times across rounds. The estimate of one round's time
/// is the sum over operations of each operation's fastest time. Interference
/// from other tenants of a shared host only ever adds time, in bursts that
/// last from a second to minutes and often hit one CPU at a time, so a median
/// follows the neighbours' load while the minimum over rounds spread across
/// CPUs (see CpuRotation) follows the program's own cost.
class OpTimes {
 public:
  void add(const std::vector<double>& per_op) {
    if (samples_.size() < per_op.size()) samples_.resize(per_op.size());
    for (std::size_t i = 0; i < per_op.size(); ++i) {
      samples_[i].push_back(per_op[i]);
    }
  }
  double estimate() const {
    double sum = 0.0;
    for (const auto& v : samples_) sum += *std::min_element(v.begin(), v.end());
    return sum;
  }

 private:
  std::vector<std::vector<double>> samples_;
};

/// Moves the (single-threaded) benchmark to the next CPU of its affinity
/// mask before each round, so every operation is timed on every CPU. Off
/// with --jobs > 1: pool threads inherit the caller's mask.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (!enabled || sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[i_++ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof set, &set);  // best effort
  }

 private:
  std::vector<int> cpus_;
  std::size_t i_ = 0;
};

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
  const bool correct = t.failed == 0 && !t.nondeterministic;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

void print_spread(const char* name, const std::vector<double>& v,
                  const char* unit) {
  const Quartiles q = quartiles(v);
  std::printf("%-26s median %.6g %s  q1 %.6g  q3 %.6g  (n=%zu)\n", name,
              q.median, unit, q.q1, q.q3, v.size());
}

// --- untraced: end-to-end metrics -----------------------------------------

int run_untraced(const Options& opt) {
  Tally tally;
  CpuRotation cpus(opt.jobs == 1);
  tally.add(run_round(opt, nullptr));  // warm-up, not timed
  OpTimes wall;
  OpTimes setup;
  std::vector<double> round_wall;
  const auto start = Clock::now();
  constexpr std::size_t kMinRounds = 3;
  while (round_wall.size() < kMinRounds ||
         seconds_between(start, Clock::now()) < opt.seconds) {
    cpus.next();
    const RoundResult r = run_round(opt, nullptr);
    tally.add(r);
    wall.add(r.op_wall_s);
    setup.add(r.op_setup_s);
    round_wall.push_back(r.wall_s);
  }
  const double rss = peak_rss_mb();
  std::printf("perfbench workload=%s seed=%llu scale=%g jobs=%d rounds=%zu "
              "(+1 warm-up)\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.scale, opt.jobs, round_wall.size());
  std::printf("digest %s %016llx\n", opt.workload.c_str(),
              static_cast<unsigned long long>(tally.first_digest));
  print_spread("round wall", round_wall, "s");
  print_result(tally, {{"wall_s", wall.estimate(), "s"},
                       {"setup_s", setup.estimate(), "s"},
                       {"peak_rss_mb", rss, "MB"}});
  return tally.failed == 0 && !tally.nondeterministic ? 0 : 1;
}

// --- traced: per-layer metrics --------------------------------------------

int run_traced(const Options& opt) {
  Tally tally;
  SpanLog spans;
  CpuRotation cpus(opt.jobs == 1);
  tally.add(run_round(opt, nullptr));  // warm-up, not timed

  // Alternate untraced and traced rounds so both see the same host load.
  OpTimes wall_off;
  OpTimes wall_on;
  std::vector<double> round_off;
  std::vector<double> round_on;
  LayerTimes calls;
  std::vector<double> host_p50_ms, host_max_ms;
  std::vector<double> probe_ns_per_event, probe_ns_per_request;
  LayerCounts counts;
  bool have_counts = false;
  bool counts_repeat = true;
  double segment_ns = 0.0;
  const double workload_budget = opt.seconds / 2.0;
  const auto start = Clock::now();
  constexpr std::size_t kMinPairs = 2;
  while (round_on.size() < kMinPairs ||
         seconds_between(start, Clock::now()) < workload_budget) {
    cpus.next();
    const RoundResult off = run_round(opt, nullptr);
    tally.add(off);
    wall_off.add(off.op_wall_s);
    round_off.push_back(off.wall_s);

    const int round_span = spans.open("round");
    const RoundResult on = run_round(opt, &spans);
    spans.close(round_span);
    tally.add(on);
    wall_on.add(on.op_wall_s);
    round_on.push_back(on.wall_s);
    calls.append(on.times);
    probe_ns_per_event.push_back(on.probe_ns_per_event);
    probe_ns_per_request.push_back(on.probe_ns_per_request);
    if (!on.times.host_run_s.empty()) {
      const Quartiles hq = quartiles(on.times.host_run_s);
      double mx = 0.0;
      for (const double h : on.times.host_run_s) mx = std::max(mx, h);
      host_p50_ms.push_back(hq.median * 1e3);
      host_max_ms.push_back(mx * 1e3);
    }
    if (!have_counts) {
      counts = on.counts;
      segment_ns = on.segment_ns;
      have_counts = true;
    } else if (!(on.counts == counts)) {
      counts_repeat = false;
    }
  }
  if (!counts_repeat) {
    std::printf("FAILED layer counts differ between traced rounds\n");
    ++tally.failed;
  }

  const double ladder_budget =
      std::max(0.5, opt.seconds - seconds_between(start, Clock::now()));
  const int ladder_span = spans.open("ladder");
  const std::vector<RungResult> rungs = run_ladder(ladder_budget, segment_ns);
  spans.close(ladder_span);

  const auto med = [](const std::vector<double>& v) {
    return quartiles(v).median;
  };
  const auto med_ms = [&](const std::vector<double>& v) {
    return med(v) * 1e3;
  };
  const double wall_untraced = wall_off.estimate();
  const double wall_traced = wall_on.estimate();
  const bool serve = opt.workload == "serve";
  const LayerCounts& c = counts;

  const auto rung = [&](const std::string& name) {
    for (const auto& r : rungs) {
      if (r.name == name) return r.ns;
    }
    return Quartiles{};
  };
  // Σ(rung ns × matching count) over the rungs that time one layer's own
  // calls and whose call count is public. Rungs that nest other layers
  // (switch, futex, epoll, await round trips) would count those layers twice.
  const double attributed_ns =
      rung("sim.fire_ns").median * static_cast<double>(c.events) +
      rung("sched.pick_ns").median * static_cast<double>(c.rq_picks) +
      rung("obs.sample_tick_ns").median *
          static_cast<double>(c.sampler_ticks) +
      rung("obs.fleet_merge_ns").median * static_cast<double>(c.fleet_hosts);

  std::vector<Metric> m = {
      {"sim.events", static_cast<double>(c.events), "count"},
      {"sim.host_ns_per_event",
       serve ? med(probe_ns_per_event)
             : wall_untraced * 1e9 /
                   static_cast<double>(std::max<std::uint64_t>(c.events, 1)),
       "ns"},
      {"kern.context_switches", static_cast<double>(c.context_switches),
       "count"},
      {"kern.wakeups", static_cast<double>(c.wakeups), "count"},
      {"kern.migrations", static_cast<double>(c.migrations), "count"},
      {"kern.ctor_ms", med_ms(calls.kernel_ctor_s), "ms"},
      {"sched.rq_picks", static_cast<double>(c.rq_picks), "count"},
      {"sched.rq_enqueues", static_cast<double>(c.rq_enqueues), "count"},
      {"sched.balance_attempts", static_cast<double>(c.balance_attempts),
       "count"},
      {"sched.balance_pulls", static_cast<double>(c.balance_pulls), "count"},
      {"futex.sleeps", static_cast<double>(c.futex_sleeps), "count"},
      {"futex.wakes", static_cast<double>(c.futex_wakes), "count"},
      {"futex.contended_ratio", ratio(c.futex_locks_contended, c.futex_locks),
       "ratio"},
      {"epoll.instance_locks", static_cast<double>(c.epoll_locks), "count"},
      {"epoll.contended_ratio", ratio(c.epoll_locks_contended, c.epoll_locks),
       "ratio"},
      {"core.vb_parks", static_cast<double>(c.vb_parks), "count"},
      {"core.vb_check_quanta", static_cast<double>(c.vb_check_quanta),
       "count"},
      {"core.vb_check_share", ratio(c.vb_check_ns, c.busy_ns), "ratio"},
      {"core.bwd_windows", static_cast<double>(c.bwd_windows), "count"},
      {"core.bwd_descheduled", static_cast<double>(c.bwd_descheduled),
       "count"},
      {"core.bwd_precision", ratio(c.bwd_tp, c.bwd_tp + c.bwd_fp), "ratio"},
      {"workloads.spawn_ms", med_ms(calls.spawn_s), "ms"},
      {"traffic.requests", static_cast<double>(c.requests), "count"},
      {"traffic.completed", static_cast<double>(c.completed), "count"},
      {"traffic.shed_ratio", ratio(c.shed, c.requests), "ratio"},
      {"traffic.host_ns_per_request",
       serve ? wall_untraced * 1e9 /
                   static_cast<double>(std::max<std::uint64_t>(c.requests, 1))
             : med(probe_ns_per_request),
       "ns"},
      {"traffic.host_run_ms_p50", med(host_p50_ms), "ms"},
      {"traffic.host_run_ms_max", med(host_max_ms), "ms"},
      {"traffic.fleet_ctor_ms", med_ms(calls.fleet_ctor_s), "ms"},
      {"obs.sampler_ticks", static_cast<double>(c.sampler_ticks), "count"},
      {"obs.watchdog_checks", static_cast<double>(c.watchdog_checks),
       "count"},
      {"obs.snapshot_ms", med_ms(calls.snapshot_s), "ms"},
      {"bench.unattributed_share",
       wall_untraced > 0 ? 1.0 - attributed_ns / (wall_untraced * 1e9) : 0.0,
       "ratio"},
      {"bench.trace_overhead",
       wall_untraced > 0 ? wall_traced / wall_untraced - 1.0 : 0.0, "ratio"},
  };
  for (const RungResult& r : rungs) {
    m.push_back({r.name, r.ns.median, "ns"});
    m.push_back({r.name + ".q1", r.ns.q1, "ns"});
    m.push_back({r.name + ".q3", r.ns.q3, "ns"});
  }

  std::printf("perfbench workload=%s seed=%llu scale=%g jobs=%d traced "
              "rounds=%zu untraced rounds=%zu (+1 warm-up)\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.scale, opt.jobs, round_on.size(), round_off.size());
  std::printf("digest %s %016llx\n", opt.workload.c_str(),
              static_cast<unsigned long long>(tally.first_digest));
  print_spread("round wall (untraced)", round_off, "s");
  print_spread("round wall (traced)", round_on, "s");
  for (const RungResult& r : rungs) {
    std::printf("%-26s median %.6g ns  q1 %.6g  q3 %.6g  (%zu trials)\n",
                r.name.c_str(), r.ns.median, r.ns.q1, r.ns.q3, r.trials);
  }
  if (serve) {
    std::printf("from the serve-host probe: sim.host_ns_per_event, "
                "kern.ctor_ms, workloads.spawn_ms (the fleet keeps its host "
                "kernels private)\n"
                "zero on serve: sim.events, core.vb_check_share (not public "
                "for fleet hosts)\n");
  } else {
    std::printf("from the serve-host probe: traffic.host_ns_per_request, "
                "traffic.host_run_ms_*, traffic.fleet_ctor_ms, "
                "obs.snapshot_ms\n"
                "zero on %s: traffic and obs counts (no fleet, no sampler)\n",
                opt.workload.c_str());
  }
  std::printf("segment for hw rungs: %.1f ns\n", segment_ns);
  if (!opt.spans_dir.empty()) {
    const std::string path = opt.spans_dir + "/spans-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".json";
    if (spans.write_chrome_json(path)) {
      std::printf("spans: wrote %zu to %s\n", spans.size(), path.c_str());
    } else {
      std::printf("FAILED writing spans to %s\n", path.c_str());
      ++tally.failed;
    }
  }
  print_result(tally, m);
  return tally.failed == 0 && !tally.nondeterministic ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  return opt.trace ? run_traced(opt) : run_untraced(opt);
}
