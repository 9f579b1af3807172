// Periodic per-core state sampler (sim-top).
//
// Rides `Engine::schedule_periodic()`: every configured simulated interval
// the sampler asks its owner (the Kernel) to fill one `CoreSample` per core
// plus one `GlobalSample`, derives the per-interval counter deltas, pushes
// the frame into fixed-capacity overwrite-oldest ring storage, and (when
// wired) hands the frame to the `InvariantWatchdog`.
//
// Sampling is pure observation: the periodic event reads kernel state but
// never touches it, so a run with sampling enabled is behaviourally
// identical to one without (a property test enforces this). Frames are
// captured between engine events, where kernel invariants hold.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "common/overwrite_ring.h"
#include "common/units.h"
#include "sim/engine.h"

namespace eo::obs {

class InvariantWatchdog;

struct SamplerConfig {
  bool enabled = false;
  /// Simulated time between samples.
  SimDuration interval = 1_ms;
  /// Frames retained (oldest overwritten beyond this).
  std::size_t ring_capacity = 1u << 12;
};

/// Instantaneous per-core scheduler state at one sample point.
struct CoreSample {
  std::int32_t rq_depth = 0;     ///< nr_running (incl. running + VB-parked)
  std::int32_t schedulable = 0;  ///< nr_running minus VB-parked
  std::int32_t vb_parked = 0;    ///< entities parked by virtual blocking
  std::int32_t bwd_skipped = 0;  ///< entities carrying a BWD skip flag
  std::uint8_t running = 0;      ///< a task is on the core
  std::uint8_t online = 0;
};
static_assert(std::is_trivially_copyable_v<CoreSample>,
              "sampling must be a plain copy");

/// Kernel-wide ground truth captured with each frame. Counter fields are
/// cumulative; the sampler derives the per-interval deltas.
struct GlobalSample {
  std::int64_t live_tasks = 0;
  std::int32_t online_cores = 0;
  /// Live tasks on a runqueue or a core (VB-parked ones included).
  std::int64_t tasks_runnable = 0;
  /// Live tasks off every runqueue: futex/epoll-blocked or in a timed sleep.
  std::int64_t tasks_sleeping = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t migrations = 0;
  std::uint64_t vb_parks = 0;
  std::uint64_t vb_unparks = 0;
};

/// One retained time-series point (the global half; per-core halves are
/// stored alongside in the ring).
struct TickSample {
  SimTime ts = 0;
  std::int64_t live_tasks = 0;
  std::int32_t online_cores = 0;
  std::uint64_t d_context_switches = 0;  ///< delta since previous sample
  std::uint64_t d_wakeups = 0;
  std::uint64_t d_migrations = 0;
};

/// Fixed-capacity ring of frames: one TickSample plus n_cores CoreSamples
/// per frame, pushed together so the two series stay aligned. Both rings
/// are `OverwriteRing`s, so only the frames a run writes become resident.
class SeriesStore {
 public:
  /// An empty store: capacity 0, accepts no frames. The Sampler starts with
  /// one and only builds real ring storage on start() with sampling enabled,
  /// so kernels that never sample (the common case on the micro hot paths)
  /// pay nothing for the ring.
  SeriesStore() = default;
  SeriesStore(int n_cores, std::size_t capacity);

  void push(const TickSample& tick, const CoreSample* cores) {
    EO_CHECK(capacity() > 0) << "push into an empty (never-started) store";
    ticks_.push(tick);
    cores_.push(cores);
  }

  std::size_t capacity() const { return ticks_.capacity(); }
  /// Frames currently retained (<= capacity).
  std::size_t size() const { return ticks_.size(); }
  /// Frames overwritten because the ring was full.
  std::uint64_t dropped() const { return ticks_.dropped(); }

  /// Appends the retained frames, oldest first. `core_out` receives the
  /// per-core series frame-major: frame 0's cores 0..n-1, then frame 1's.
  void copy_ordered(std::vector<TickSample>* tick_out,
                    std::vector<CoreSample>* core_out) const {
    if (tick_out) ticks_.copy_ordered(tick_out);
    if (core_out) cores_.copy_ordered(core_out);
  }

 private:
  OverwriteRing<TickSample> ticks_;
  OverwriteRing<CoreSample> cores_;  ///< stride n_cores
};

class Sampler {
 public:
  /// Fills one CoreSample per core (exactly `n_cores` of them) plus the
  /// global ground truth.
  using Collect = std::function<void(CoreSample* cores, GlobalSample* g)>;

  Sampler(sim::Engine* engine, int n_cores);
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Starts periodic sampling per `cfg` (no-op when cfg.enabled is false).
  /// `collect` supplies the state; `watchdog` may be null.
  void start(const SamplerConfig& cfg, Collect collect,
             InvariantWatchdog* watchdog);
  void stop();

  bool enabled() const { return event_ != sim::kInvalidEvent; }
  SimDuration interval() const { return cfg_.interval; }
  /// Total samples taken (including frames since overwritten).
  std::uint64_t ticks() const { return ticks_; }
  const SeriesStore& series() const { return series_; }

  /// Takes one sample immediately (also the periodic-event body).
  void sample_now();

 private:
  sim::Engine* engine_;
  int n_cores_;
  SamplerConfig cfg_;
  Collect collect_;
  InvariantWatchdog* watchdog_ = nullptr;
  sim::EventId event_ = sim::kInvalidEvent;
  SeriesStore series_;
  std::vector<CoreSample> scratch_;  ///< reused per tick, no allocation
  /// Previous frame's cores + per-core "differs from previous" mask, so the
  /// watchdog only re-checks cores that actually changed.
  std::vector<CoreSample> prev_cores_;
  std::vector<std::uint8_t> changed_;
  bool have_prev_ = false;
  GlobalSample prev_;
  std::uint64_t ticks_ = 0;
};

}  // namespace eo::obs
