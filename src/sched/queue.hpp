#pragma once

/// \file queue.hpp
/// \brief The batch scheduler's pending queue, indexed by job shape.
///
/// Jobs leave the queue in (priority desc, submit asc, id asc) order.  A
/// job's place in that order never changes (a requeue keeps its submit
/// time), so the queue ranks every job once, when it is built, and holds
/// the queued ranks in an ordered set.  A second index groups the queued
/// jobs by shape: (gate, nodes), where the gate is the free cores a node
/// needs to host the job (NodePool::occupied_per_node).  A shape fits the
/// pool exactly when NodePool::fits_shape(gate, nodes), so an EASY
/// backfill pass reads the jobs it may start off the shapes that fit,
/// without visiting the rest of the queue.
///
/// push() and erase() cost O(log jobs), head() O(1), any_shape_fits()
/// O(gates + fitting shapes), and a backfill() pass O(gates + fitting
/// shapes + candidates x log candidates), where the candidates are the
/// queued jobs of fitting shapes that vacate by the reservation.

#include <cstddef>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "sched/nodes.hpp"

namespace hpcs::sched {

class JobQueue {
 public:
  /// What the queue needs to know of one job.
  struct Job {
    int priority = 0;  ///< higher leaves first
    double submit_s = 0.0;
    int gate = 1;   ///< free cores a node needs to host the job
    int nodes = 1;  ///< nodes the job needs
    double walltime_s = 0.0;
  };

  JobQueue() = default;
  /// An empty queue over \p jobs, indexed by job id.
  explicit JobQueue(const std::vector<Job>& jobs);

  /// Queues \p job.  O(log jobs).
  /// \throws std::logic_error when \p job is unknown or already queued.
  void push(int job);

  /// Removes \p job from the queue and from its shape.  O(log jobs).
  /// \throws std::logic_error when \p job is not queued.
  void erase(int job);

  bool empty() const noexcept { return order_.empty(); }
  std::size_t size() const noexcept { return order_.size(); }
  /// Jobs held in the shape index: size(), unless the index leaked.
  std::size_t indexed() const noexcept;

  /// The first job in queue order.
  /// \throws std::logic_error when the queue is empty.
  int head() const;

  /// True when some queued job's shape fits \p pool now.
  bool any_shape_fits(const NodePool& pool) const;

  /// The EASY backfill pass behind a blocked head: calls \p start, in
  /// queue order, for every queued job that fits \p pool and satisfies
  /// `now + walltime_s <= reservation` at the moment it is reached —
  /// the jobs a scan of the whole queue would start.  \p start must
  /// allocate the job on \p pool and erase() it, and may queue nothing.
  ///
  /// Exact because starts only take cores away and the reservation does
  /// not move: a shape that does not fit at pass start fits no later in
  /// the pass, so the candidates, taken from the shapes that fit then and
  /// sorted into queue order, hold every job the scan would start.
  /// \throws std::logic_error when \p start leaves its job queued.
  void backfill(const NodePool& pool, double now, double reservation,
                const std::function<void(int)>& start);

 private:
  struct Shape {
    int gate = 0;
    int nodes = 0;
    /// Queued jobs as (walltime, queue rank): the jobs that vacate by a
    /// reservation are a prefix.
    std::set<std::pair<double, int>> queued;
    /// One past the last shape of this gate: shapes of one gate sit
    /// together in nodes order, so the first that does not fit ends them.
    std::size_t gate_end = 0;
  };

  std::vector<int> rank_;         ///< job -> queue rank
  std::vector<int> by_rank_;      ///< queue rank -> job
  std::vector<int> shape_of_;     ///< job -> index into shapes_
  std::vector<double> walltime_;  ///< job -> walltime_s
  std::vector<Shape> shapes_;     ///< ordered by (gate, nodes)
  std::set<int> order_;           ///< queue ranks of the queued jobs
  std::vector<int> candidates_;   ///< one backfill pass's ranks
};

}  // namespace hpcs::sched
