#pragma once

/// \file pull_time.hpp
/// \brief Closed-form oracle for concurrent registry pulls, which the
///        tests hold DeploymentSimulator's pull phase against.

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace hpcs::container {

/// Time for \p pullers nodes, each needing \p bytes_per_node, to pull at
/// once from a registry that serves \p max_streams transfers at a time
/// and shares \p egress_bw [bytes/s] evenly within each wave; every node
/// is further capped by its own downlink \p node_downlink_bw.
inline double concurrent_pull_time(std::uint64_t bytes_per_node, int pullers,
                                   double node_downlink_bw, double egress_bw,
                                   int max_streams) {
  if (egress_bw <= 0)
    throw std::invalid_argument("pull time: egress bandwidth must be > 0");
  if (max_streams < 1)
    throw std::invalid_argument("pull time: max_streams must be >= 1");
  if (pullers < 1)
    throw std::invalid_argument("pull time: pullers must be >= 1");
  if (node_downlink_bw <= 0)
    throw std::invalid_argument("pull time: downlink must be > 0");
  double total = 0.0;
  for (int remaining = pullers; remaining > 0; remaining -= max_streams) {
    const int in_wave = std::min(remaining, max_streams);
    total += static_cast<double>(bytes_per_node) /
             std::min(node_downlink_bw,
                      egress_bw / static_cast<double>(in_wave));
  }
  return total;
}

}  // namespace hpcs::container
