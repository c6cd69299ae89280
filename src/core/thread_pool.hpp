#pragma once

/// \file thread_pool.hpp
/// \brief Work-stealing task pool driving campaign execution.
///
/// Unlike `alya::ThreadPool` (a fork-join pool with a *static* schedule,
/// mirroring the solver's OpenMP loops), this pool schedules independent
/// coarse-grained tasks — one per campaign cell — dynamically: each worker
/// owns a deque, `submit` deals tasks round-robin, and an idle worker
/// steals from the back of the most loaded victim.  Campaign cells vary
/// wildly in cost (a 256-node FSI sweep point is ~100x a 2-node CFD one),
/// so stealing is what keeps all workers busy until the tail.
///
/// Determinism: the pool never reorders *results* — campaign cells write
/// to disjoint slots — so anything built on it is reproducible regardless
/// of worker count or completion order.

#include <cstddef>
#include <functional>
#include <vector>

namespace hpcs::study {

class TaskPool {
 public:
  struct Impl;  // opaque; public so the worker entry point can name it

  /// Creates \p threads workers (>= 1 required).
  /// \throws std::invalid_argument for threads < 1.
  explicit TaskPool(int threads);

  /// Waits for every submitted task to finish, then joins the workers.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int thread_count() const noexcept { return threads_; }

  /// Enqueues a task.  Tasks may themselves submit further tasks (they are
  /// pushed onto the submitting worker's own deque).
  void submit(std::function<void()> task);

  /// Blocks until all submitted tasks (including nested ones) completed.
  /// Rethrows the first exception a task threw; the pool remains usable.
  void wait_idle();

  /// Scheduling-health snapshot.  Host-side diagnostics only: every field
  /// depends on worker count and timing, so callers must keep these out
  /// of jobs-invariant artifacts (the campaign surfaces them in a
  /// separate host-metrics registry that is never serialized alongside
  /// figure data).
  struct Stats {
    std::size_t steals = 0;           ///< successful steals
    std::size_t max_queue_depth = 0;  ///< deepest any worker deque got
    std::size_t tasks_executed = 0;   ///< tasks completed
    std::vector<std::size_t> per_worker;  ///< completions per worker
  };
  Stats stats() const;

  /// Index of the pool worker executing the calling thread, or -1 when
  /// called from outside any pool.  Diagnostic only (worker assignment is
  /// scheduling-dependent); observability keeps it out of serialized
  /// artifacts so traces stay jobs-invariant.
  static int current_worker() noexcept;

 private:
  Impl* impl_;  // pimpl keeps <thread>/<deque> out of the header
  int threads_;
};

}  // namespace hpcs::study
