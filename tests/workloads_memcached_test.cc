// Tests for the memcached server model and the mutilate client.
#include "workloads/memcached.h"

#include <gtest/gtest.h>

#include "metrics/experiment.h"
#include "workloads/mutilate.h"

namespace eo::workloads {
namespace {

TEST(Memcached, ProcessesAllRequests) {
  metrics::RunConfig rc;
  rc.cpus = 4;
  rc.sockets = 1;
  auto kc = metrics::make_kernel_config(rc);
  kern::Kernel k(kc);
  MemcachedConfig mc;
  mc.n_workers = 4;
  MemcachedSim server(k, mc);
  server.start();
  for (int i = 0; i < 200; ++i) {
    k.engine().schedule_at(i * 50_us,
                           [&server, i] { server.post_request(i % 11 != 0); });
  }
  k.run_until(200_ms);
  EXPECT_EQ(server.completed(), 200u);
  EXPECT_EQ(server.latencies().total_count(), 200u);
  EXPECT_GT(server.latencies().mean(), 0.0);
  server.stop();
  EXPECT_TRUE(k.run_to_exit(k.now() + 1_s));
}

TEST(Memcached, LatencyGrowsWithLoad) {
  auto run_at = [](double rate) {
    metrics::RunConfig rc;
    rc.cpus = 4;
    rc.sockets = 1;
    auto kc = metrics::make_kernel_config(rc);
    kern::Kernel k(kc);
    MemcachedConfig mc;
    mc.n_workers = 4;
    MemcachedSim server(k, mc);
    server.start();
    MutilateConfig cc;
    cc.rate_ops_per_sec = rate;
    cc.until = 300_ms;
    MutilateClient client(server, cc);
    client.start();
    k.run_until(350_ms);
    const double p99 = to_us(server.latencies().p99());
    server.stop();
    k.run_to_exit(k.now() + 1_s);
    return p99;
  };
  const double light = run_at(20000);
  const double heavy = run_at(500000);
  EXPECT_GT(heavy, light);
}

TEST(Memcached, ResetMeasurementDiscardsWarmup) {
  metrics::RunConfig rc;
  rc.cpus = 2;
  rc.sockets = 1;
  auto kc = metrics::make_kernel_config(rc);
  kern::Kernel k(kc);
  MemcachedConfig mc;
  mc.n_workers = 2;
  MemcachedSim server(k, mc);
  server.start();
  for (int i = 0; i < 50; ++i) {
    k.engine().schedule_at(i * 100_us, [&server] { server.post_request(true); });
  }
  k.run_until(50_ms);
  EXPECT_EQ(server.completed(), 50u);
  server.reset_measurement();
  EXPECT_EQ(server.completed(), 0u);
  EXPECT_EQ(server.latencies().total_count(), 0u);
  server.stop();
  k.run_to_exit(k.now() + 1_s);
}

TEST(Mutilate, OpenLoopRateApproximatelyHonored) {
  metrics::RunConfig rc;
  rc.cpus = 8;
  rc.sockets = 1;
  auto kc = metrics::make_kernel_config(rc);
  kern::Kernel k(kc);
  MemcachedConfig mc;
  mc.n_workers = 8;
  MemcachedSim server(k, mc);
  server.start();
  MutilateConfig cc;
  cc.rate_ops_per_sec = 100000;
  cc.until = 500_ms;
  MutilateClient client(server, cc);
  client.start();
  k.run_until(500_ms);
  // Poisson arrivals at 100k/s over 0.5s: ~50000 +- noise.
  EXPECT_NEAR(static_cast<double>(client.injected()), 50000.0, 2000.0);
  server.stop();
  k.run_to_exit(k.now() + 1_s);
}

}  // namespace
}  // namespace eo::workloads
