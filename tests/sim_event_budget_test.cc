// Event budget: the number of engine events each Figure 9 / Figure 14 cell
// fires, pinned exactly like a golden. Events fired is the simulator's unit
// of host work, so an algorithmic regression on the hot paths (an extra
// timer per switch, a re-armed wakeup, a redundant balance pass) shows up
// here as a changed count — deterministically, with no host-time ceiling
// to flake. Host time per event is measured separately by perfbench's
// paired runs (sim.fire_ns, kern.switch_ns, futex.round_trip_ns, ...).
//
// Each VB+BWD cell also pins BWD's confusion matrix over its windows. That
// is the detector's outcome under the synthetic PMC model, so any change to
// how the model draws from the per-core RNG (once per window: L1D, dTLB,
// then the stray miss of Figure 14's spin code) shows up here too.
//
// Each cell uses the sched_golden_fig09 setup: 32 threads on 8 cores over
// 2 sockets, vanilla and VB+BWD, workload seed 7 (the kernel seed stays at
// RunConfig's default, as in the bench), scale 0.05, 600 s deadline. A
// deliberate behaviour change updates the pins by pasting the observed
// table the failure prints.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/config.h"
#include "kern/kernel.h"
#include "metrics/experiment.h"
#include "workloads/suite.h"

namespace eo {
namespace {

/// BwdAccuracy as {windows, tp, fp, fn, tn}.
using BwdCounts = std::array<std::uint64_t, 5>;

struct Pin {
  const char* program;
  std::uint64_t vanilla;    ///< events fired, Features::vanilla()
  std::uint64_t optimized;  ///< events fired, Features::optimized()
  BwdCounts bwd;            ///< BWD accuracy, Features::optimized()
};

// Figure 9's 13 programs in fig9_benchmarks() order, then Figure 14's two.
const std::vector<Pin> kPins = {
    {"fluidanimate", 8552, 70743, {2301, 0, 0, 0, 2301}},
    {"freqmine", 1664, 7032, {2008, 0, 0, 0, 2008}},
    {"streamcluster", 4353, 36189, {2145, 0, 0, 0, 2145}},
    {"lu_cb", 1661, 6421, {1864, 0, 0, 0, 1864}},
    {"ocean", 2150, 7500, {1696, 0, 0, 0, 1696}},
    {"radix", 1368, 6085, {1973, 0, 0, 0, 1973}},
    {"is", 1168, 5381, {1966, 0, 2, 0, 1964}},
    {"cg", 3196, 9956, {1876, 0, 6, 0, 1870}},
    {"mg", 2167, 8087, {2020, 0, 4, 0, 2016}},
    {"ft", 1316, 6738, {2624, 0, 0, 0, 2624}},
    {"sp", 2670, 9493, {2096, 0, 0, 0, 2096}},
    {"bt", 2374, 9215, {2344, 0, 1, 0, 2343}},
    {"ua", 4932, 40680, {2050, 0, 0, 0, 2050}},
    {"lu", 4161, 5324, {2280, 1080, 0, 1, 1199}},
    {"volrend", 1876, 3817, {2208, 532, 0, 0, 1676}},
};

struct Cell {
  std::uint64_t events = 0;
  BwdCounts bwd{};
};

Cell run_cell(const std::string& program, bool optimized) {
  const auto& spec = workloads::find_benchmark(program);
  metrics::RunConfig rc;
  rc.cpus = 8;
  rc.sockets = 2;
  rc.features =
      optimized ? core::Features::optimized() : core::Features::vanilla();
  rc.ref_footprint = spec.ref_footprint();
  kern::Kernel k(metrics::make_kernel_config(rc));
  workloads::spawn_benchmark(k, spec, 32, 7, 0.05);
  EXPECT_TRUE(k.run_to_exit(600_s)) << program << " missed its deadline";
  const core::BwdAccuracy& a = k.bwd_accuracy();
  return {k.engine().events_fired(), {a.windows, a.tp, a.fp, a.fn, a.tn}};
}

TEST(SimEventBudget, CoversFigure9AndFigure14Programs) {
  std::vector<std::string> expected = workloads::fig9_benchmarks();
  expected.push_back("lu");
  expected.push_back("volrend");
  std::vector<std::string> pinned;
  for (const Pin& p : kPins) pinned.push_back(p.program);
  EXPECT_EQ(pinned, expected);
}

TEST(SimEventBudget, EventsFiredMatchPins) {
  std::ostringstream observed;
  bool all_match = true;
  for (const Pin& p : kPins) {
    const Cell v = run_cell(p.program, false);
    const Cell o = run_cell(p.program, true);
    EXPECT_EQ(v.events, p.vanilla) << p.program << " vanilla";
    EXPECT_EQ(o.events, p.optimized) << p.program << " VB+BWD";
    EXPECT_EQ(o.bwd, p.bwd) << p.program << " VB+BWD bwd accuracy";
    all_match = all_match && v.events == p.vanilla &&
                o.events == p.optimized && o.bwd == p.bwd;
    const BwdCounts& b = o.bwd;
    observed << "    {\"" << p.program << "\", " << v.events << ", "
             << o.events << ", {" << b[0] << ", " << b[1] << ", " << b[2]
             << ", " << b[3] << ", " << b[4] << "}},\n";
  }
  if (!all_match) ADD_FAILURE() << "observed table:\n" << observed.str();
}

}  // namespace
}  // namespace eo
