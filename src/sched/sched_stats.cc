#include "sched/sched_stats.h"

#include "obs/metrics.h"

namespace eo::sched {

namespace {
#define EO_SCHED_STATS_COUNT(name) +1
constexpr std::size_t kNumFields = 0 EO_SCHED_STATS_FIELDS(EO_SCHED_STATS_COUNT);
#undef EO_SCHED_STATS_COUNT
}  // namespace

// A field added to the struct but not the X-macro changes sizeof and fails
// here; one added to the macro flows into the registry bridge for free.
static_assert(sizeof(SchedStats) == kNumFields * sizeof(std::uint64_t),
              "SchedStats field missing from EO_SCHED_STATS_FIELDS");

void SchedStats::register_metrics(obs::MetricRegistry* reg) const {
#define EO_SCHED_STATS_REGISTER(field) \
  reg->register_counter("sched." #field, &field);
  EO_SCHED_STATS_FIELDS(EO_SCHED_STATS_REGISTER)
#undef EO_SCHED_STATS_REGISTER
}

}  // namespace eo::sched
