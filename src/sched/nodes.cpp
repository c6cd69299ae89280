#include "sched/nodes.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

namespace hpcs::sched {

NodePool::NodePool(int nodes, int cores_per_node) : cores_(cores_per_node) {
  if (nodes < 1)
    throw std::invalid_argument("NodePool: nodes must be >= 1");
  if (cores_per_node < 1)
    throw std::invalid_argument("NodePool: cores_per_node must be >= 1");
  free_.assign(static_cast<std::size_t>(nodes), cores_per_node);
  count_ge_.assign(static_cast<std::size_t>(cores_per_node) + 1, nodes);
}

void NodePool::set_free(std::size_t node, int value) {
  int& free = free_[node];
  for (int c = free + 1; c <= value; ++c)
    ++count_ge_[static_cast<std::size_t>(c)];
  for (int c = value + 1; c <= free; ++c)
    --count_ge_[static_cast<std::size_t>(c)];
  free = value;
}

std::int64_t NodePool::free_cores() const noexcept {
  return std::accumulate(free_.begin(), free_.end(), std::int64_t{0});
}

int NodePool::free_cores(int node) const {
  return free_.at(static_cast<std::size_t>(node));
}

int NodePool::occupied_per_node(int cores_wanted,
                                AllocMode mode) const noexcept {
  return mode == AllocMode::Dedicated ? cores_ : cores_wanted;
}

void NodePool::check_request(int nodes_wanted, int cores_wanted) const {
  if (nodes_wanted < 1)
    throw std::invalid_argument("NodePool: nodes_wanted must be >= 1");
  if (cores_wanted < 1 || cores_wanted > cores_)
    throw std::invalid_argument(
        "NodePool: cores_wanted must be in [1, " + std::to_string(cores_) +
        "]");
}

bool NodePool::fits(int nodes_wanted, int cores_wanted,
                    AllocMode mode) const {
  check_request(nodes_wanted, cores_wanted);
  const int gate = mode == AllocMode::Dedicated ? cores_ : cores_wanted;
  return count_ge_[static_cast<std::size_t>(gate)] >= nodes_wanted;
}

std::vector<int> NodePool::allocate(int nodes_wanted, int cores_wanted,
                                    AllocMode mode) {
  if (!fits(nodes_wanted, cores_wanted, mode)) return {};
  const int need = occupied_per_node(cores_wanted, mode);
  const int gate = mode == AllocMode::Dedicated ? cores_ : cores_wanted;
  std::vector<int> chosen;
  chosen.reserve(static_cast<std::size_t>(nodes_wanted));
  for (std::size_t n = 0; n < free_.size(); ++n) {
    if (free_[n] >= gate) {
      chosen.push_back(static_cast<int>(n));
      if (static_cast<int>(chosen.size()) == nodes_wanted) break;
    }
  }
  for (const int n : chosen) {
    const auto node = static_cast<std::size_t>(n);
    set_free(node, free_[node] - need);
  }
  return chosen;
}

void NodePool::release(const std::vector<int>& nodes, int cores_wanted,
                       AllocMode mode) {
  const int need = occupied_per_node(cores_wanted, mode);
  for (const int n : nodes) {
    const int free = free_cores(n);
    if (free + need > cores_)
      throw std::logic_error(
          "NodePool: release overflows node " + std::to_string(n) +
          " (double release or oversubscription)");
    set_free(static_cast<std::size_t>(n), free + need);
  }
}

}  // namespace hpcs::sched
