// Memcached server model (paper Section 4.2, Figure 12).
//
// Worker threads block in epoll_wait (libevent style); each request is a GET
// or SET with a hash-table lookup protected by a pthread mutex, value
// copying proportional to the value size, and response serialization. The
// mutilate-style client (mutilate.h) posts open-loop Poisson arrivals.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "common/units.h"
#include "kern/kernel.h"
#include "runtime/mutex.h"

namespace eo::workloads {

struct MemcachedConfig {
  int n_workers = 4;
  /// GET:SET ratio 10:1, 128 B keys, 2048 B values (the paper's mix).
  double get_fraction = 10.0 / 11.0;
  std::uint32_t key_bytes = 128;
  std::uint32_t value_bytes = 2048;
  /// CPU cost components per request.
  SimDuration parse_cost = 1500;      ///< request parsing + dispatch
  SimDuration lookup_cost = 300;      ///< hash lookup (under the mutex)
  SimDuration set_extra_cost = 1800;  ///< allocation + store for SETs
  /// Per-byte value copy cost (ns/byte).
  double copy_ns_per_byte = 0.8;
};

/// One in-flight or completed request.
struct McRequest {
  SimTime arrival = 0;
  bool is_get = true;
};

class MemcachedSim {
 public:
  MemcachedSim(kern::Kernel& k, const MemcachedConfig& cfg);

  /// Spawns the worker threads. Workers run until stop() is called and the
  /// queue drains.
  void start();

  /// Called by the client: registers a request arriving now and wakes a
  /// worker. Returns the request id.
  std::uint64_t post_request(bool is_get);

  /// Asks workers to exit after the pending queue drains.
  void stop();

  int epoll_fd() const { return epfd_; }
  kern::Kernel& kernel() { return k_; }
  /// Request latencies (ns) recorded since the last reset_measurement().
  const Histogram& latencies() const { return latencies_; }
  const MemcachedConfig& config() const { return cfg_; }
  std::uint64_t completed() const { return completed_; }

  /// Begins the measurement window (discards warmup latencies).
  void reset_measurement();

 private:
  friend struct McWorker;

  kern::Kernel& k_;
  MemcachedConfig cfg_;
  int epfd_ = -1;
  std::vector<McRequest> requests_;
  Histogram latencies_;
  std::uint64_t completed_ = 0;
  std::unique_ptr<runtime::SimMutex> table_mutex_;
  bool stopping_ = false;
};

}  // namespace eo::workloads
