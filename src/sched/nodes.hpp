#pragma once

/// \file nodes.hpp
/// \brief Core-level cluster occupancy for the batch scheduler.
///
/// NodePool tracks free cores per node and hands out deterministic
/// allocations: lowest-index nodes win, so a run never depends on map
/// order or host state.  Dedicated jobs take whole (fully idle) nodes and
/// occupy every core; node-sharing jobs occupy exactly the cores they
/// request, so several jobs can pack one node.  Release paths check their
/// arithmetic and throw std::logic_error on any would-be oversubscription
/// — the first line of the invariant harness, backed by the property
/// tests in tests/test_sched.cpp.
///
/// A histogram of free cores (how many nodes have at least c free) makes
/// fits() O(1); allocate() and release() keep it current at O(cores per
/// node) per touched node.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sched/policy.hpp"

namespace hpcs::sched {

class NodePool {
 public:
  /// \throws std::invalid_argument for non-positive dimensions.
  NodePool(int nodes, int cores_per_node);

  int nodes() const noexcept { return static_cast<int>(free_.size()); }
  int cores_per_node() const noexcept { return cores_; }
  std::int64_t total_cores() const noexcept {
    return static_cast<std::int64_t>(free_.size()) * cores_;
  }
  std::int64_t free_cores() const noexcept;
  int free_cores(int node) const;

  /// Cores one job occupies on each of its nodes under \p mode
  /// (dedicated jobs own the whole node regardless of the request).
  int occupied_per_node(int cores_wanted, AllocMode mode) const noexcept;

  /// True when \p nodes_wanted nodes x \p cores_wanted cores fit now.
  /// O(1).
  /// \throws std::invalid_argument for the requests allocate() rejects.
  bool fits(int nodes_wanted, int cores_wanted, AllocMode mode) const;

  /// Allocates and returns the chosen node indices in increasing order,
  /// or an empty vector when the request does not fit right now.
  /// \throws std::invalid_argument for non-positive node counts or core
  ///         requests exceeding a node.
  std::vector<int> allocate(int nodes_wanted, int cores_wanted,
                            AllocMode mode);

  /// Releases a previous allocation.
  /// \throws std::logic_error when the release would overflow a node's
  ///         capacity (an allocator bug, never a workload condition).
  void release(const std::vector<int>& nodes, int cores_wanted,
               AllocMode mode);

 private:
  void check_request(int nodes_wanted, int cores_wanted) const;
  /// Sets one node's free cores and moves it in the histogram; the only
  /// writer of free_ after construction.
  void set_free(std::size_t node, int value);

  std::vector<int> free_;  ///< free cores per node
  /// count_ge_[c]: nodes with at least c free cores, c in [0, cores_].
  std::vector<int> count_ge_;
  int cores_;
};

}  // namespace hpcs::sched
