#include "workloads/memcached.h"

#include "common/logging.h"
#include "runtime/sim_thread.h"

namespace eo::workloads {

using runtime::Env;
using runtime::SimThread;

namespace {
/// Sentinel event payload asking a worker to exit.
constexpr std::uint64_t kStopEvent = ~0ull;
}  // namespace

MemcachedSim::MemcachedSim(kern::Kernel& k, const MemcachedConfig& cfg)
    : k_(k), cfg_(cfg) {
  epfd_ = k_.epoll_create();
  table_mutex_ = std::make_unique<runtime::SimMutex>(k_);
  requests_.reserve(1 << 20);
}

void MemcachedSim::start() {
  for (int i = 0; i < cfg_.n_workers; ++i) {
    MemcachedSim* self = this;
    runtime::spawn(k_, "mc-worker-" + std::to_string(i),
                   [self](Env env) -> SimThread {
                     const MemcachedConfig& c = self->cfg_;
                     const SimDuration copy_cost = static_cast<SimDuration>(
                         c.copy_ns_per_byte * c.value_bytes);
                     for (;;) {
                       const std::uint64_t ev =
                           co_await env.epoll_wait(self->epfd_);
                       if (ev == kStopEvent) break;
                       const McRequest req =
                           self->requests_[static_cast<size_t>(ev)];
                       co_await env.compute(c.parse_cost);
                       co_await self->table_mutex_->lock(env);
                       co_await env.compute(c.lookup_cost);
                       co_await self->table_mutex_->unlock(env);
                       if (req.is_get) {
                         co_await env.compute(copy_cost);
                       } else {
                         co_await env.compute(c.set_extra_cost + copy_cost);
                       }
                       self->latencies_.add(env.now() - req.arrival);
                       ++self->completed_;
                     }
                     co_return;
                   });
  }
}

std::uint64_t MemcachedSim::post_request(bool is_get) {
  const auto id = static_cast<std::uint64_t>(requests_.size());
  requests_.push_back(McRequest{k_.now(), is_get});
  k_.epoll_post_external(epfd_, id);
  return id;
}

void MemcachedSim::stop() {
  stopping_ = true;
  for (int i = 0; i < cfg_.n_workers; ++i) {
    k_.epoll_post_external(epfd_, kStopEvent);
  }
}

void MemcachedSim::reset_measurement() {
  latencies_.clear();
  completed_ = 0;
}

}  // namespace eo::workloads
