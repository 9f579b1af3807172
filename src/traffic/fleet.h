// Million-connection open-loop serving fleet.
//
// The fig12 memcached model is testbed-sized: one machine, a closed set of
// requests, a growing request vector. This module scales the same epoll
// worker pattern to production shape: many simulated hosts, each serving
// tens of thousands of connections whose aggregate arrivals come from an
// open-loop `ArrivalProcess`, with every per-connection and per-request byte
// accounted for:
//
//  * `Connection` is a packed 16-byte record; the fleet keeps ONE flat slab
//    of n_hosts * conns_per_host of them, so a million connections cost
//    16 MB and a connection id is just an index. The constructor only
//    reserves the slab; each host clears its own slice the first time it
//    runs, on the thread that simulates it, so construction is O(1) and the
//    clearing lands in the memory that host touches next.
//  * In-flight requests live in a per-host `PendingRequest` slot slab (the
//    engine's free-list idiom): posting a request takes a slot, the epoll
//    payload is the slot index, completion frees it. The slab is reserved
//    up front and filled on demand (`RequestSlab`), so the request path
//    performs no heap allocation anywhere — arrival draw, epoll post,
//    worker wake, service, histogram record, slot free.
//  * When every slot is in flight the host sheds the arrival (counted,
//    never queued) — the open-loop analogue of a full accept queue.
//
// Hosts are simulated independently and deterministically: host h's kernel
// and arrival stream are seeded from (fleet seed, h), so the fleet result is
// a pure function of its config, adding hosts never perturbs existing ones,
// and the hosts can run concurrently on a host-thread pool
// (`FleetConfig.jobs`) with results merged in host order — byte-identical to
// the sequential run.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "common/histogram.h"
#include "common/mapped_allocator.h"
#include "common/rng.h"
#include "common/units.h"
#include "kern/kernel.h"
#include "obs/fleet_agg.h"
#include "obs/progress.h"
#include "obs/taskstats.h"
#include "traffic/arrival.h"

namespace eo::traffic {

/// X-macro over the request-latency blame categories (critical-path
/// analyzer). Keeps the struct, the merge, the exported counters, and the
/// bench table in sync.
#define EO_SERVE_BLAME_FIELDS(X) \
  X(backlog)                     \
  X(wake_park)                   \
  X(wake_sleep)                  \
  X(rq_wait)                     \
  X(skip_delay)                  \
  X(service_cpu)                 \
  X(other)

/// Critical-path decomposition of completed-request latency: each request's
/// arrival-to-completion time is split, exactly and by integer arithmetic,
/// into the delay states of the worker that served it (via
/// `obs::TaskDelaySnapshot` deltas around the epoll wait and the service
/// span):
///  * `backlog`     — the request sat in the ready queue while its eventual
///                    worker was still serving earlier requests;
///  * `wake_park`   — worker VB-parked between this request's arrival and
///                    its dequeue (the VB wake path's contribution);
///  * `wake_sleep`  — worker vanilla-blocked in epoll over the same span;
///  * `rq_wait`     — worker on a runqueue waiting for a core (wake-side and
///                    mid-service, including post-migration wait);
///  * `skip_delay`  — worker delayed by a BWD schedule-skip;
///  * `service_cpu` — worker on-CPU executing the request;
///  * `other`       — everything else (epoll-entry overhead on the wake
///                    side, i.e. on-CPU time before the worker blocked).
/// The categories sum to the summed latency of the counted requests, so the
/// blame table explains exactly where p99 movement under VB/BWD comes from.
struct BlameBreakdown {
  std::uint64_t requests = 0;
#define EO_BLAME_FIELD(name) SimDuration name = 0;
  EO_SERVE_BLAME_FIELDS(EO_BLAME_FIELD)
#undef EO_BLAME_FIELD

  SimDuration total() const {
    SimDuration sum = 0;
#define EO_BLAME_SUM(name) sum += name;
    EO_SERVE_BLAME_FIELDS(EO_BLAME_SUM)
#undef EO_BLAME_SUM
    return sum;
  }
  void merge(const BlameBreakdown& o) {
    requests += o.requests;
#define EO_BLAME_MERGE(name) name += o.name;
    EO_SERVE_BLAME_FIELDS(EO_BLAME_MERGE)
#undef EO_BLAME_MERGE
  }
};

/// Packed per-connection record. The million-connection scenario keeps one
/// of these per simulated connection resident, so the size is a contract
/// (tests/traffic_sizeof_test.cc gates it).
struct Connection {
  std::uint32_t issued = 0;       ///< requests arrived on this connection
  std::uint32_t completed = 0;    ///< responses delivered
  std::uint32_t last_latency_us = 0;
  std::uint16_t inflight = 0;     ///< issued - completed - shed
  std::uint16_t shed = 0;         ///< arrivals dropped (slab full), saturating
};
static_assert(sizeof(Connection) == 16, "per-connection record must stay packed");
static_assert(std::is_trivially_destructible_v<Connection>,
              "the fleet frees its connection slab without destructor calls");

/// One in-flight request: a slot in the per-host slab. Free slots chain
/// through `next_free`; live slots carry the arrival and worker-dequeue
/// timestamps and the connection index (bit 31 of conn_and_op flags a SET).
/// The two timestamps are the latency-attribution record: arrival→dequeue is
/// queueing delay, dequeue→completion is service (whose excess over the
/// request's ideal CPU cost is scheduling delay).
struct PendingRequest {
  SimTime arrival = 0;
  SimTime dequeued = 0;
  std::uint32_t conn_and_op = 0;
  std::uint32_t next_free = 0;
};
static_assert(sizeof(PendingRequest) == 24, "request slot must stay packed");

/// A host's request slots, reserved (mapped) for `max_slots` and filled on
/// demand: claim() returns the most recently released slot, else the next
/// never-used one, so a host writes only as many slots as it ever has in
/// flight at once. The storage never moves, so slot references stay valid.
class RequestSlab {
 public:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  explicit RequestSlab(std::uint32_t max_slots) : max_slots_(max_slots) {
    slots_.reserve(max_slots);
  }

  /// A free slot, or kNoSlot when all `max_slots` are in flight.
  std::uint32_t claim() {
    std::uint32_t slot = free_head_;
    if (slot != kNoSlot) {
      free_head_ = slots_[slot].next_free;
    } else if (slots_.size() < max_slots_) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      return kNoSlot;
    }
    ++live_;
    return slot;
  }
  void release(std::uint32_t slot) {
    slots_[slot].next_free = free_head_;
    free_head_ = slot;
    --live_;
  }

  PendingRequest& operator[](std::uint32_t slot) { return slots_[slot]; }
  /// Slots in flight.
  std::uint32_t live() const { return live_; }
  /// Slots ever claimed: the part of the reservation that was written.
  std::size_t touched() const { return slots_.size(); }

 private:
  std::vector<PendingRequest, MappedAllocator<PendingRequest>> slots_;
  std::uint32_t max_slots_;
  std::uint32_t free_head_ = kNoSlot;  ///< released slots, LIFO
  std::uint32_t live_ = 0;
};

struct ServeHostConfig {
  /// Worker threads blocking in epoll_wait (libevent style). The headline
  /// scenario oversubscribes: 16 workers on 8 cores.
  int n_workers = 16;
  std::uint32_t n_connections = 32768;
  /// Request-slab slots; arrivals beyond this many in flight are shed.
  std::uint32_t max_pending = 8192;
  /// SET fraction (the paper's 10:1 GET:SET mix).
  double set_fraction = 1.0 / 11.0;
  /// CPU cost per request: parse + lookup + value copy (+ SET extra).
  SimDuration parse_cost = 2000;
  SimDuration lookup_cost = 500;
  SimDuration set_extra_cost = 1800;
  std::uint32_t value_bytes = 4096;
  double copy_ns_per_byte = 0.8;
};

/// Mean CPU cost of one request under `cfg`, in ns — the capacity yardstick
/// benches use to place offered-load points relative to saturation.
double mean_request_cost_ns(const ServeHostConfig& cfg);

/// One simulated host: workers + request slab + its slice of the fleet's
/// connection slab, driven by an aggregate open-loop arrival process.
class ServeHost {
 public:
  /// `conns` points at this host's `cfg.n_connections` connection records
  /// (fleet-owned storage outliving the host).
  ServeHost(kern::Kernel& k, const ServeHostConfig& cfg, Connection* conns,
            const ArrivalConfig& arrival, std::uint64_t seed);

  /// Spawns the workers and schedules the arrival process; arrivals stop at
  /// `inject_until` (simulated time).
  void start(SimTime inject_until);

  /// Asks workers to exit once the pending queue drains.
  void stop();

  /// Opens the measurement window: clears the latency/attribution
  /// histograms and the windowed counters (connection records keep
  /// accumulating).
  void begin_window();

  const Histogram& latency() const { return latency_; }
  /// Arrival → worker dequeue: time spent waiting in the epoll ready queue.
  const Histogram& queueing() const { return queueing_; }
  /// Worker dequeue → completion: CPU cost plus any preemption the worker
  /// suffered mid-request.
  const Histogram& service() const { return service_; }
  /// Service time minus the request's ideal CPU cost — the scheduler-induced
  /// part of the latency, the observable that explains why VB/BWD moves the
  /// SLO knee.
  const Histogram& sched_delay() const { return sched_delay_; }
  std::uint64_t issued() const { return issued_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t shed() const { return shed_; }
  /// Request slots currently in flight.
  std::uint32_t pending() const { return slab_.live(); }
  int epoll_fd() const { return epfd_; }
  /// Windowed critical-path decomposition of completed-request latency.
  /// All-zero (except `requests`) when metrics are compiled out.
  const BlameBreakdown& blame() const { return blame_; }

 private:
  /// Per-worker blame bookkeeping. A worker serves one request start-to-
  /// finish, so the in-flight request's critical-path record is per-worker
  /// state, sized once at start() — nothing per-request is allocated.
  struct WorkerMark {
    obs::TaskDelaySnapshot wait_snap;  ///< taken just before epoll_wait
    SimTime wait_at = 0;
    obs::TaskDelaySnapshot deq_snap;  ///< taken when the wait returned
  };

  /// Draws the connection of the next arrival and prefetches its record:
  /// a random 16-byte record in the host's slice is a cache miss, and the
  /// draw stays in the order the arrivals consume it.
  void draw_next_conn();
  void schedule_arrival(SimTime at);
  void inject(SimTime now);
  void complete(std::uint32_t slot, SimTime now, int worker,
                const obs::TaskDelaySnapshot& done_snap);

  kern::Kernel& k_;
  ServeHostConfig cfg_;
  Connection* conns_;
  int epfd_ = -1;
  ArrivalProcess arrival_;
  Rng rng_;  ///< connection pick + GET/SET draw
  std::uint32_t next_conn_ = 0;  ///< the next arrival's connection
  RequestSlab slab_;
  SimTime inject_until_ = 0;
  /// Ideal value-copy cost, precomputed once so the worker loop and the
  /// attribution in complete() always agree on a request's ideal CPU cost.
  SimDuration copy_cost_ = 0;
  // Windowed counters (begin_window resets them).
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t shed_ = 0;
  Histogram latency_;
  Histogram queueing_;
  Histogram service_;
  Histogram sched_delay_;
  BlameBreakdown blame_;
  std::vector<WorkerMark> marks_;  ///< n_workers entries, sized at start()
};

struct FleetConfig {
  int n_hosts = 32;
  ServeHostConfig host;
  /// Per-host aggregate arrival stream (rate_per_sec is per host).
  ArrivalConfig arrival;
  /// Kernel template; per-host seeds are derived from `seed`, not taken
  /// from here.
  kern::KernelConfig kernel;
  SimDuration warmup = 10_ms;
  SimDuration window = 40_ms;
  SimDuration drain = 5_ms;
  std::uint64_t seed = 1;
  /// Host threads simulating hosts concurrently: 1 = sequential (in the
  /// calling thread), 0 = hardware concurrency. Hosts are seeded
  /// independently and write disjoint state, and results are merged in host
  /// order, so the fleet result is identical for every `jobs` value (the
  /// serve_parallel_golden ctest pins this byte-for-byte).
  std::size_t jobs = 1;
  /// Live progress feed (host started / window fraction / host finished).
  /// Purely observational — attaching a sink never changes the result. Not
  /// owned; must outlive run(). Null = no feed.
  obs::ProgressSink* progress = nullptr;
};

/// Aggregated outcome of one fleet run (one offered-load point).
struct FleetResult {
  Histogram latency;  ///< merged measurement-window latencies, all hosts
  // Merged latency-attribution histograms (see the ServeHost accessors).
  Histogram queueing;
  Histogram service;
  Histogram sched_delay;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t total_connections = 0;
  /// Connections that carried at least one request over the whole run.
  std::uint64_t active_connections = 0;
  SimDuration window = 0;
  /// Scheduler counters summed field-wise across every host.
  sched::SchedStats stats;
  /// Per-host scheduler counters, host order (n_hosts entries).
  std::vector<sched::SchedStats> host_stats;
  /// Telemetry of one host when sampling is enabled: the first host whose
  /// watchdog recorded a violation, else host 0 (so sweep-level checks see
  /// failures anywhere in the fleet). Violation ids carry a `host=<h>`
  /// prefix.
  std::shared_ptr<obs::MetricsDoc> metrics;
  /// The merged fleet document — every host's telemetry, per-host breakdown
  /// included — when sampling is enabled, else null.
  std::shared_ptr<obs::FleetMetricsDoc> fleet_metrics;
  /// Request-latency blame, fleet-merged (host order) and per host. Also
  /// exported as `serve.blame.*` counters on each host's metrics document
  /// (and therefore summed into the fleet document) when
  /// `FleetConfig.kernel.taskstats` is set.
  BlameBreakdown blame;
  std::vector<BlameBreakdown> host_blames;
  /// Per-task delay accounting of the representative host (same pick as
  /// `metrics`); null unless `kernel.taskstats` is set.
  std::shared_ptr<obs::TaskstatsDoc> taskstats;
};

/// The fleet: owns the flat connection slab (all hosts, reserved by the
/// constructor and initialised per host on the first run()) and runs the
/// hosts — sequentially or on a host-thread pool (`FleetConfig.jobs`), since
/// each host's kernel, arrival stream, and connection-slab slice are fully
/// independent.
class ConnectionFleet {
 public:
  explicit ConnectionFleet(const FleetConfig& cfg);

  /// Simulates every host through warmup + window + drain and aggregates.
  /// The first call zeroes each host's connection records; later calls keep
  /// accumulating into them.
  FleetResult run();

  std::size_t total_connections() const { return n_conns_; }
  /// Every host's connection records, host-major. Checks that run() has
  /// initialised them.
  const Connection* connections() const;

 private:
  /// Releases the raw slab storage (`Connection` is trivially destructible).
  struct FreeSlab {
    void operator()(Connection* p) const { ::operator delete(p); }
  };

  FleetConfig cfg_;
  std::size_t n_conns_;
  std::unique_ptr<Connection[], FreeSlab> conns_;
  bool initialised_ = false;
};

}  // namespace eo::traffic
