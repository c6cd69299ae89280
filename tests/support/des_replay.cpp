#include "support/des_replay.hpp"

#include <algorithm>
#include <stdexcept>

namespace hpcs::mpi {

void ReplayConfig::validate() const {
  if (iterations < 1) throw std::invalid_argument("Replay: iterations < 1");
  if (neighbors < 0) throw std::invalid_argument("Replay: neighbors < 0");
  if (reductions < 0) throw std::invalid_argument("Replay: reductions < 0");
}

DesReplay::DesReplay(const CostModel& cost, ReplayConfig config)
    : cost_(cost), config_(config) {
  config_.validate();
}

ReplayResult DesReplay::run(const std::vector<double>& compute) const {
  const int p = cost_.mapping().ranks();
  if (compute.size() != static_cast<std::size_t>(p))
    throw std::invalid_argument("DesReplay: compute size != ranks");

  const int rpn = cost_.mapping().ranks_per_node();
  std::vector<double> clock(static_cast<std::size_t>(p), 0.0);
  std::vector<double> ready(static_cast<std::size_t>(p), 0.0);
  const Collectives coll(cost_);

  ReplayResult result;
  const int half = config_.neighbors / 2;

  for (int it = 0; it < config_.iterations; ++it) {
    // 1. Compute phase (independent per rank).
    for (int r = 0; r < p; ++r) {
      clock[static_cast<std::size_t>(r)] +=
          compute[static_cast<std::size_t>(r)];
      result.avg_rank_busy += compute[static_cast<std::size_t>(r)];
    }

    // 2. Halo: rank r exchanges with ring neighbors r±1..r±half; its
    // receive completes when the latest neighbor message arrives.
    if (config_.neighbors > 0 && p > 1) {
      for (int r = 0; r < p; ++r) {
        double done = clock[static_cast<std::size_t>(r)];
        for (int d = 1; d <= half; ++d) {
          for (int nb : {(r + d) % p, (r - d + p) % p}) {
            if (nb == r) continue;
            // Flows: every rank of the sender's node injects at once on
            // inter-node links.
            const bool same_node = cost_.mapping().same_node(r, nb);
            const double msg =
                cost_.p2p_time(nb, r, config_.halo_bytes,
                               same_node ? 1 : rpn);
            const double arrival =
                clock[static_cast<std::size_t>(nb)] + msg;
            if (arrival > done) {
              result.max_wait = std::max(
                  result.max_wait,
                  arrival - clock[static_cast<std::size_t>(r)]);
              done = arrival;
            }
          }
        }
        ready[static_cast<std::size_t>(r)] = done;
      }
      clock = ready;
    }

    // 3. Reductions: a global synchronization; everyone leaves at the
    // time the slowest rank entered plus the collective's cost.
    if (config_.reductions > 0) {
      const double enter =
          *std::max_element(clock.begin(), clock.end());
      const double leave =
          enter + static_cast<double>(config_.reductions) *
                      coll.allreduce(config_.reduction_bytes);
      std::fill(clock.begin(), clock.end(), leave);
    }
  }

  result.makespan = *std::max_element(clock.begin(), clock.end());
  result.avg_rank_busy /= static_cast<double>(p);
  return result;
}

double DesReplay::bsp_estimate(const std::vector<double>& compute) const {
  const int p = cost_.mapping().ranks();
  if (compute.size() != static_cast<std::size_t>(p))
    throw std::invalid_argument("DesReplay: compute size != ranks");
  const int rpn = cost_.mapping().ranks_per_node();
  const Collectives coll(cost_);

  const double max_compute =
      *std::max_element(compute.begin(), compute.end());
  double halo = 0.0;
  if (config_.neighbors > 0 && p > 1) {
    // The runner's approximation: one inter-node message at full NIC
    // contention bounds the exchange.
    halo = cost_.internode_time(config_.halo_bytes, rpn);
    if (cost_.mapping().nodes() == 1)
      halo = cost_.intranode_time(config_.halo_bytes, 1);
  }
  const double reductions =
      static_cast<double>(config_.reductions) *
      coll.allreduce(config_.reduction_bytes);
  return static_cast<double>(config_.iterations) *
         (max_compute + halo + reductions);
}

}  // namespace hpcs::mpi
