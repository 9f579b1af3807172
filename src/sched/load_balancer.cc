#include "sched/load_balancer.h"

namespace eo::sched {

std::optional<BalanceDecision> LoadBalancer::find_pull(
    int dst_cpu, const std::vector<Runqueue*>& rqs,
    FunctionRef<bool(int)> online, bool newly_idle) const {
  ++counters_->balance_attempts;
  const int threshold = newly_idle ? 1 : params_->balance_imbalance;
  // Prefer a same-socket pull; only cross sockets if the local socket is
  // balanced.
  if (auto d = find_pull_in(dst_cpu, rqs, online, /*same_socket_only=*/true,
                            threshold)) {
    ++counters_->balance_pulls;
    return d;
  }
  auto d = find_pull_in(dst_cpu, rqs, online, /*same_socket_only=*/false,
                        threshold);
  if (d) ++counters_->balance_pulls;
  return d;
}

std::optional<BalanceDecision> LoadBalancer::find_pull_in(
    int dst_cpu, const std::vector<Runqueue*>& rqs,
    FunctionRef<bool(int)> online, bool same_socket_only,
    int threshold) const {
  const int dst_socket = topo_->socket_of(dst_cpu);
  // Load metric: schedulable entities plus VB-parked ones. VB deliberately
  // keeps parked threads in the count, which is what stabilizes the load
  // signal; curr is included via nr_running().
  const int my_load = rqs[static_cast<size_t>(dst_cpu)]->nr_running();

  int busiest = -1;
  int busiest_load = my_load;
  for (int cpu = 0; cpu < static_cast<int>(rqs.size()); ++cpu) {
    if (cpu == dst_cpu || !online(cpu)) continue;
    const bool same = topo_->socket_of(cpu) == dst_socket;
    if (same_socket_only && !same) continue;
    if (!same_socket_only && same) continue;  // second pass: other sockets only
    const int load = rqs[static_cast<size_t>(cpu)]->nr_running();
    if (load > busiest_load) {
      busiest_load = load;
      busiest = cpu;
    }
  }
  if (busiest < 0 || busiest_load - my_load < threshold) return std::nullopt;
  SchedEntity* victim = rqs[static_cast<size_t>(busiest)]->migration_candidate();
  if (victim == nullptr) return std::nullopt;
  return BalanceDecision{busiest, dst_cpu, victim,
                         topo_->socket_of(busiest) != dst_socket};
}

}  // namespace eo::sched
