// Key-value server: the memcached scenario of the paper's Section 4.2.
// Worker threads block in epoll_wait; a mutilate-style client injects
// open-loop Poisson load. Oversubscribing workers (16 on 4 cores) hurts
// vanilla tail latency badly; VB-for-epoll recovers it.
//
//   $ ./examples/keyvalue_server
#include <cstdio>

#include "kern/kernel.h"
#include "metrics/experiment.h"
#include "workloads/memcached.h"
#include "workloads/mutilate.h"

using namespace eo;

namespace {

void run(const char* label, int workers, bool optimized) {
  metrics::RunConfig rc;
  rc.cpus = 4;
  rc.sockets = 1;
  rc.features = optimized ? core::Features::optimized()
                          : core::Features::vanilla();
  kern::Kernel kernel(metrics::make_kernel_config(rc));

  workloads::MemcachedConfig mc;
  mc.n_workers = workers;
  workloads::MemcachedSim server(kernel, mc);
  server.start();

  workloads::MutilateConfig cc;
  cc.rate_ops_per_sec = 480000;  // near the 4-core saturation knee
  cc.until = 900_ms;
  workloads::MutilateClient client(server, cc);
  client.start();

  kernel.run_until(300_ms);   // warmup
  server.reset_measurement();
  kernel.run_until(900_ms);
  server.stop();
  kernel.run_to_exit(kernel.now() + 1_s);

  const Histogram& lat = server.latencies();
  std::printf("  %-24s tput=%7.0f ops/s  avg=%6.1fus  p95=%7.1fus  p99=%7.1fus\n",
              label, static_cast<double>(lat.total_count()) / to_sec(600_ms),
              to_us(static_cast<SimDuration>(lat.mean())), to_us(lat.p95()),
              to_us(lat.p99()));
}

}  // namespace

int main() {
  std::printf("keyvalue_server: memcached model on 4 cores, 480k ops/s offered\n");
  run("4 workers, vanilla", 4, false);
  run("16 workers, vanilla", 16, false);
  run("16 workers, optimized", 16, true);
  std::printf("\n16 oversubscribed workers keep the elasticity to expand to more\n"
              "cores; VB keeps their tail latency near the 4-worker baseline.\n");
  return 0;
}
