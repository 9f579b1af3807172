// ServeHost / ConnectionFleet tests. The load-bearing one is the
// allocation-counting check (the shared harness in alloc_count.h): once a
// host is warm, the entire request path — arrival draw, slot-slab claim,
// epoll post, worker wake, service computes, latency record, slot free —
// must not touch the heap. That property is what lets the fleet scale to a
// million connections without the allocator on the critical path.
#include "traffic/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "alloc_count.h"
#include "traffic/slo.h"

namespace eo::traffic {
namespace {

ServeHostConfig small_host() {
  ServeHostConfig hc;
  hc.n_connections = 4096;
  hc.max_pending = 1024;
  return hc;
}

/// Offered load as `frac` of one 8-core host's CPU capacity.
double offered(const ServeHostConfig& hc, double frac) {
  return frac * 8e9 / mean_request_cost_ns(hc);
}

TEST(Fleet, RequestPathIsAllocationFreeWhenWarm) {
  // Also covers the latency-attribution timestamps: stamping arrival/dequeue
  // and recording the queueing/service/sched-delay histograms rides the same
  // path, so the zero below proves attribution adds no steady-state
  // allocations either.
  kern::KernelConfig kc;
  kc.topo = hw::Topology::make_cores(8, 1);
  kern::Kernel k(kc);
  const ServeHostConfig hc = small_host();
  std::vector<Connection> conns(hc.n_connections);
  ArrivalConfig ac;
  // Saturating load: the request slab and the epoll ready ring reach their
  // steady-state footprint during warmup, so nothing grows afterwards.
  ac.rate_per_sec = offered(hc, 1.3);
  ServeHost host(k, hc, conns.data(), ac, 7);
  host.start(/*inject_until=*/45_ms);
  k.run_until(20_ms);  // warm: slabs, rings, wake-chain pool, engine heap
  const std::uint64_t n = allocs_during([&] { k.run_until(45_ms); });
  EXPECT_EQ(n, 0u);
  // Drain, stop the workers, and check the books balance.
  k.run_until(50_ms);
  host.stop();
  k.run_to_exit(k.now() + 1_s);
  EXPECT_GT(host.completed(), 0u);
  EXPECT_GT(host.shed(), 0u);  // 1.3x load must shed
  EXPECT_EQ(host.pending(), 0u);
  EXPECT_EQ(host.issued(), host.completed());
}

TEST(Fleet, ConnectionRecordsBalanceAfterDrain) {
  kern::KernelConfig kc;
  kc.topo = hw::Topology::make_cores(8, 1);
  kern::Kernel k(kc);
  const ServeHostConfig hc = small_host();
  std::vector<Connection> conns(hc.n_connections);
  ArrivalConfig ac;
  ac.rate_per_sec = offered(hc, 0.6);
  ServeHost host(k, hc, conns.data(), ac, 11);
  host.start(/*inject_until=*/30_ms);
  k.run_until(40_ms);
  host.stop();
  k.run_to_exit(k.now() + 1_s);

  std::uint64_t issued = 0, completed = 0, shed = 0, inflight = 0;
  for (const Connection& c : conns) {
    issued += c.issued;
    completed += c.completed;
    shed += c.shed;
    inflight += c.inflight;
  }
  EXPECT_EQ(inflight, 0u);
  EXPECT_EQ(issued, host.issued());
  EXPECT_EQ(completed, host.completed());
  EXPECT_EQ(shed, host.shed());
  EXPECT_EQ(issued, completed);
  EXPECT_EQ(host.latency().total_count(), host.completed());
  // At 0.6x load spread over 4096 connections, many carry traffic.
  std::uint64_t active = 0;
  for (const Connection& c : conns) active += c.issued > 0 ? 1 : 0;
  EXPECT_GT(active, hc.n_connections / 2);
}

TEST(Fleet, OverloadShedsInsteadOfQueueing) {
  FleetConfig fc;
  fc.n_hosts = 1;
  fc.host = small_host();
  fc.host.max_pending = 8;  // tiny slab: overload must shed, never queue
  fc.kernel.topo = hw::Topology::make_cores(8, 1);
  fc.arrival.rate_per_sec = offered(fc.host, 3.0);
  fc.warmup = 2_ms;
  fc.window = 10_ms;
  fc.drain = 2_ms;
  ConnectionFleet fleet(fc);
  const FleetResult r = fleet.run();
  EXPECT_GT(r.shed, 0u);
  EXPECT_GT(r.completed, 0u);
  EXPECT_EQ(r.latency.total_count(), r.completed);
  // Shed requests never enter the latency histogram, so the tail reflects at
  // most max_pending in flight — bounded, not collapse.
  const SloPoint p =
      SloReporter::summarize(fc.arrival.rate_per_sec, r, fc.window + fc.drain);
  EXPECT_GT(p.shed_fraction, 0.1);
  EXPECT_LT(p.achieved_ops_s, p.offered_ops_s);
}

TEST(Fleet, RunIsDeterministic) {
  FleetConfig fc;
  fc.n_hosts = 2;
  fc.host = small_host();
  fc.host.n_connections = 2048;
  fc.kernel.topo = hw::Topology::make_cores(8, 1);
  fc.arrival.kind = ArrivalKind::kOnOff;
  fc.arrival.rate_per_sec = offered(fc.host, 0.8);
  fc.warmup = 2_ms;
  fc.window = 10_ms;
  fc.drain = 2_ms;
  fc.seed = 1234;

  ConnectionFleet a(fc);
  ConnectionFleet b(fc);
  const FleetResult ra = a.run();
  const FleetResult rb = b.run();
  EXPECT_EQ(ra.issued, rb.issued);
  EXPECT_EQ(ra.completed, rb.completed);
  EXPECT_EQ(ra.shed, rb.shed);
  EXPECT_EQ(ra.active_connections, rb.active_connections);
  EXPECT_EQ(ra.latency.total_count(), rb.latency.total_count());
  EXPECT_EQ(ra.latency.p50(), rb.latency.p50());
  EXPECT_EQ(ra.latency.p99(), rb.latency.p99());
  EXPECT_EQ(ra.latency.p999(), rb.latency.p999());
  EXPECT_EQ(ra.stats.context_switches, rb.stats.context_switches);
  // The per-connection slabs must agree record by record.
  for (std::size_t i = 0; i < a.total_connections(); ++i) {
    ASSERT_EQ(a.connections()[i].issued, b.connections()[i].issued) << i;
    ASSERT_EQ(a.connections()[i].completed, b.connections()[i].completed) << i;
  }

  // A different seed must give a different run (the axes are live).
  FleetConfig fc2 = fc;
  fc2.seed = 4321;
  ConnectionFleet c(fc2);
  EXPECT_NE(c.run().latency.p50(), ra.latency.p50());
}

TEST(Fleet, SecondRunKeepsAccumulatingConnectionRecords) {
  // Each run rebuilds the hosts from the same seeds, so a second run issues
  // exactly the first run's requests again; only the first run clears the
  // slab, so every record's count doubles.
  FleetConfig fc;
  fc.n_hosts = 2;
  fc.host = small_host();
  fc.host.n_connections = 1024;
  fc.kernel.topo = hw::Topology::make_cores(8, 1);
  fc.arrival.kind = ArrivalKind::kPoisson;
  fc.arrival.rate_per_sec = offered(fc.host, 0.5);
  fc.warmup = 1_ms;
  fc.window = 4_ms;
  fc.drain = 1_ms;

  ConnectionFleet fleet(fc);
  const FleetResult first = fleet.run();
  const std::vector<Connection> after_first(
      fleet.connections(), fleet.connections() + fleet.total_connections());
  const FleetResult second = fleet.run();
  EXPECT_GT(first.active_connections, 0u);
  EXPECT_EQ(second.active_connections, first.active_connections);
  for (std::size_t i = 0; i < fleet.total_connections(); ++i) {
    ASSERT_EQ(fleet.connections()[i].issued, 2 * after_first[i].issued) << i;
  }
}

TEST(FleetDeathTest, ConnectionsBeforeRunDies) {
  FleetConfig fc;
  fc.n_hosts = 2;
  fc.host = small_host();
  const ConnectionFleet fleet(fc);
  EXPECT_EQ(fleet.total_connections(), 2u * 4096u);
  EXPECT_DEATH(fleet.connections(), "connection records read before run");
}

TEST(Fleet, ParallelRunMatchesSequential) {
  // jobs=N is a pure reordering of independent per-host simulations: every
  // aggregate and every per-connection record must match the sequential run
  // exactly, with metrics sampling on so the snapshot pick is covered too.
  FleetConfig fc;
  fc.n_hosts = 4;
  fc.host = small_host();
  fc.host.n_connections = 2048;
  fc.kernel.topo = hw::Topology::make_cores(8, 1);
  fc.kernel.metrics.enabled = true;
  fc.arrival.kind = ArrivalKind::kPoisson;
  fc.arrival.rate_per_sec = offered(fc.host, 0.8);
  fc.warmup = 2_ms;
  fc.window = 10_ms;
  fc.drain = 2_ms;
  fc.seed = 77;

  ConnectionFleet a(fc);
  const FleetResult ra = a.run();
  fc.jobs = 4;
  ConnectionFleet b(fc);
  const FleetResult rb = b.run();
  EXPECT_GT(ra.completed, 0u);
  EXPECT_EQ(ra.issued, rb.issued);
  EXPECT_EQ(ra.completed, rb.completed);
  EXPECT_EQ(ra.shed, rb.shed);
  EXPECT_EQ(ra.active_connections, rb.active_connections);
  EXPECT_EQ(ra.latency.total_count(), rb.latency.total_count());
  EXPECT_EQ(ra.latency.p50(), rb.latency.p50());
  EXPECT_EQ(ra.latency.p99(), rb.latency.p99());
  EXPECT_EQ(ra.latency.p999(), rb.latency.p999());
  EXPECT_EQ(ra.stats.context_switches, rb.stats.context_switches);
  EXPECT_EQ(ra.stats.wakeups, rb.stats.wakeups);
  for (std::size_t i = 0; i < a.total_connections(); ++i) {
    ASSERT_EQ(a.connections()[i].issued, b.connections()[i].issued) << i;
    ASSERT_EQ(a.connections()[i].completed, b.connections()[i].completed) << i;
  }
  // Both runs sampled host 0 (no violations anywhere): same snapshot pick.
  ASSERT_NE(ra.metrics, nullptr);
  ASSERT_NE(rb.metrics, nullptr);
  EXPECT_EQ(ra.metrics->watchdog_violations, 0u);
  EXPECT_EQ(ra.metrics->watchdog_checks, rb.metrics->watchdog_checks);
  EXPECT_EQ(ra.metrics->tick_series.size(), rb.metrics->tick_series.size());

  // Every host survives aggregation: the summed stats equal the sum of the
  // retained per-host entries (FleetResult used to drop all but one host).
  ASSERT_EQ(ra.host_stats.size(), 4u);
  std::uint64_t cs = 0, wakeups = 0;
  for (const auto& s : ra.host_stats) {
    cs += s.context_switches;
    wakeups += s.wakeups;
  }
  EXPECT_EQ(cs, ra.stats.context_switches);
  EXPECT_EQ(wakeups, ra.stats.wakeups);

  // Attribution histograms cover exactly the completed requests.
  EXPECT_EQ(ra.queueing.total_count(), ra.completed);
  EXPECT_EQ(ra.service.total_count(), ra.completed);
  EXPECT_EQ(ra.sched_delay.total_count(), ra.completed);

  // The merged fleet document has every host and renders byte-identically
  // whatever the jobs value — the contract serve_parallel_golden_fleet pins
  // end to end.
  ASSERT_NE(ra.fleet_metrics, nullptr);
  ASSERT_NE(rb.fleet_metrics, nullptr);
  EXPECT_EQ(ra.fleet_metrics->n_hosts, 4);
  EXPECT_EQ(ra.fleet_metrics->hosts.size(), 4u);
  EXPECT_EQ(obs::render_fleet(*ra.fleet_metrics, "json"),
            obs::render_fleet(*rb.fleet_metrics, "json"));
}

TEST(Fleet, RequestSlabHandsOutSlotsInThePreChainedOrder) {
  // Reference: a slab whose free list is chained 0, 1, ..., max-1 up front
  // and takes and returns slots at its head. The on-demand slab must hand
  // out the same slot for every claim, so the epoll payloads, and with them
  // the whole simulation, are unchanged.
  constexpr std::uint32_t kMax = 64;
  std::vector<std::uint32_t> ref_next(kMax);
  for (std::uint32_t i = 0; i < kMax; ++i) ref_next[i] = i + 1;
  std::uint32_t ref_head = 0;  // kMax = empty

  RequestSlab slab(kMax);
  Rng rng(5);
  std::vector<std::uint32_t> live;
  std::size_t peak = 0;
  for (int step = 0; step < 20000; ++step) {
    // Drift between filling the slab and draining it, so both the shed
    // path and long LIFO reuse chains are exercised.
    const bool fill = (step / 500) % 2 == 0;
    if (rng.chance(fill ? 0.7 : 0.3)) {
      const std::uint32_t got = slab.claim();
      if (ref_head == kMax) {
        ASSERT_EQ(got, RequestSlab::kNoSlot) << "step " << step;
        continue;
      }
      ASSERT_EQ(got, ref_head) << "step " << step;
      ref_head = ref_next[got];
      live.push_back(got);
    } else if (!live.empty()) {
      const std::size_t pick = rng.next_below(live.size());
      const std::uint32_t slot = live[pick];
      live[pick] = live.back();
      live.pop_back();
      slab.release(slot);
      ref_next[slot] = ref_head;
      ref_head = slot;
    }
    ASSERT_EQ(slab.live(), live.size());
    peak = std::max(peak, live.size());
    // Only slots ever in flight at once have been written.
    ASSERT_EQ(slab.touched(), peak);
  }
  EXPECT_EQ(peak, kMax);
}

}  // namespace
}  // namespace eo::traffic
