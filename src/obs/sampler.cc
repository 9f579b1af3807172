#include "obs/sampler.h"

#include "common/logging.h"
#include "obs/watchdog.h"

namespace eo::obs {

SeriesStore::SeriesStore(int n_cores, std::size_t capacity)
    : ticks_(capacity), cores_(capacity, static_cast<std::size_t>(n_cores)) {
  EO_CHECK(n_cores > 0);
}

// series_ stays the default empty store until start() with sampling enabled:
// the ring (~4096 frames of TickSample + n_cores CoreSamples) dominated
// Kernel construction cost for the vast majority of kernels that never
// sample. start() sees capacity 0 != ring_capacity and builds it then.
Sampler::Sampler(sim::Engine* engine, int n_cores)
    : engine_(engine),
      n_cores_(n_cores),
      scratch_(static_cast<std::size_t>(n_cores)) {}

Sampler::~Sampler() { stop(); }

void Sampler::start(const SamplerConfig& cfg, Collect collect,
                    InvariantWatchdog* watchdog) {
  EO_CHECK(!enabled()) << "sampler already started";
  if (!cfg.enabled) return;
  EO_CHECK(cfg.interval > 0) << "non-positive sampling interval";
  cfg_ = cfg;
  collect_ = std::move(collect);
  EO_CHECK(collect_ != nullptr);
  watchdog_ = watchdog;
  if (cfg_.ring_capacity != series_.capacity()) {
    series_ = SeriesStore(n_cores_, cfg_.ring_capacity);
  }
  event_ = engine_->schedule_periodic(cfg_.interval, cfg_.interval,
                                      [this] { sample_now(); });
}

void Sampler::stop() {
  if (event_ != sim::kInvalidEvent) {
    engine_->cancel(event_);
    event_ = sim::kInvalidEvent;
  }
}

void Sampler::sample_now() {
  GlobalSample g;
  collect_(scratch_.data(), &g);

  TickSample t;
  t.ts = engine_->now();
  t.live_tasks = g.live_tasks;
  t.online_cores = g.online_cores;
  if (have_prev_) {
    t.d_context_switches = g.context_switches - prev_.context_switches;
    t.d_wakeups = g.wakeups - prev_.wakeups;
    t.d_migrations = g.migrations - prev_.migrations;
  }
  series_.push(t, scratch_.data());
  if (watchdog_ != nullptr) {
    // Mark cores whose sample moved since the previous frame; the watchdog
    // skips re-checking unchanged, previously clean cores. The mask affects
    // cost only — frames, series, and verdicts are byte-identical either
    // way (the eo-metrics determinism property pins this).
    const std::uint8_t* mask = nullptr;
    if (prev_cores_.size() == scratch_.size()) {
      changed_.resize(scratch_.size());
      for (std::size_t i = 0; i < scratch_.size(); ++i) {
        const CoreSample& a = scratch_[i];
        const CoreSample& b = prev_cores_[i];
        // Field-wise compare (not memcmp): struct padding is indeterminate.
        changed_[i] = a.rq_depth == b.rq_depth &&
                              a.schedulable == b.schedulable &&
                              a.vb_parked == b.vb_parked &&
                              a.bwd_skipped == b.bwd_skipped &&
                              a.running == b.running && a.online == b.online
                          ? 0
                          : 1;
      }
      mask = changed_.data();
    }
    watchdog_->check(t.ts, scratch_.data(), n_cores_, g, mask);
    prev_cores_ = scratch_;
  }
  prev_ = g;
  have_prev_ = true;
  ++ticks_;
}

}  // namespace eo::obs
