// Event budget: the number of engine events each Figure 9 / Figure 14 cell
// fires, pinned exactly like a golden. Events fired is the simulator's unit
// of host work, so an algorithmic regression on the hot paths (an extra
// timer per switch, a re-armed wakeup, a redundant balance pass) shows up
// here as a changed count — deterministically, with no host-time ceiling
// to flake. Host time per event is measured separately by perfbench's
// paired runs (sim.fire_ns, kern.switch_ns, futex.round_trip_ns, ...).
//
// Each cell uses the sched_golden_fig09 setup: 32 threads on 8 cores over
// 2 sockets, vanilla and VB+BWD, workload seed 7 (the kernel seed stays at
// RunConfig's default, as in the bench), scale 0.05, 600 s deadline. A
// deliberate behaviour change updates the pins by pasting the observed
// table the failure prints.
#include <gtest/gtest.h>

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

struct Pin {
  const char* program;
  std::uint64_t vanilla;    ///< events fired, Features::vanilla()
  std::uint64_t optimized;  ///< events fired, Features::optimized()
};

// Figure 9's 13 programs in fig9_benchmarks() order, then Figure 14's two.
const std::vector<Pin> kPins = {
    {"fluidanimate", 8552, 70743},
    {"freqmine", 1664, 7032},
    {"streamcluster", 4353, 36189},
    {"lu_cb", 1661, 6421},
    {"ocean", 2150, 7500},
    {"radix", 1368, 6085},
    {"is", 1168, 5381},
    {"cg", 3196, 9956},
    {"mg", 2167, 8087},
    {"ft", 1316, 6738},
    {"sp", 2670, 9493},
    {"bt", 2374, 9215},
    {"ua", 4932, 40680},
    {"lu", 4161, 5324},
    {"volrend", 1876, 3817},
};

std::uint64_t events_fired(const std::string& program, bool optimized) {
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
  return k.engine().events_fired();
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
    const std::uint64_t v = events_fired(p.program, false);
    const std::uint64_t o = events_fired(p.program, true);
    EXPECT_EQ(v, p.vanilla) << p.program << " vanilla";
    EXPECT_EQ(o, p.optimized) << p.program << " VB+BWD";
    all_match = all_match && v == p.vanilla && o == p.optimized;
    observed << "    {\"" << p.program << "\", " << v << ", " << o << "},\n";
  }
  if (!all_match) ADD_FAILURE() << "observed table:\n" << observed.str();
}

}  // namespace
}  // namespace eo
