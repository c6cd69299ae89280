#pragma once

/// \file resilience.hpp
/// \brief Resilience policies (retry with backoff, checkpoint/restart) and
///        the per-run resilience report.
///
/// The replay model is the classic checkpoint/restart accounting: work
/// advances on a wall clock, a checkpoint every `interval_s` seconds of
/// work saves progress at `checkpoint_cost_s` each, and a crash rolls the
/// job back to the last checkpoint, pays `recovery_cost_s` of downtime
/// (runtime-specific: Docker restarts its daemon and re-pulls, the
/// shared-FS runtimes re-mount), and replays the lost work.

#include <cstdint>
#include <functional>
#include <stdexcept>

#include "fault/spec.hpp"

namespace hpcs::fault {

/// Thrown when an operation exhausts its retry budget (e.g. a registry
/// pull that keeps failing).  Campaign cells failing with this category
/// are eligible for bounded cell-level retries.
class FaultError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Retry-with-exponential-backoff policy for transient operations.
struct RetryPolicy {
  int max_attempts = 4;       ///< total tries per operation (>= 1)
  double base_delay_s = 0.5;  ///< backoff before the first retry
  double multiplier = 2.0;    ///< backoff growth per retry (>= 1)
  double max_delay_s = 30.0;  ///< backoff ceiling

  void validate() const;

  /// Backoff delay before retry number \p retry (1-based): clamped
  /// base * multiplier^(retry-1).
  double delay(int retry) const;

  /// Total backoff paid across \p failures failed attempts.
  double total_backoff(int failures) const;
};

/// Checkpoint/restart policy for the execution phase.
struct CheckpointPolicy {
  /// Work seconds between checkpoints; 0 disables checkpointing (a crash
  /// then restarts the run from the beginning).
  double interval_s = 300.0;
  /// Checkpoint payload written by each rank to the shared filesystem.
  std::uint64_t bytes_per_rank = 64ull << 20;
  /// Scheduler cost to replace a crashed node and requeue the job, paid
  /// per crash on top of the runtime-specific recovery.
  double reschedule_delay_s = 30.0;

  void validate() const;
};

/// What resilience cost one run: downtime, lost work, retries, and the
/// effective (wall) vs ideal (fault-free) time.
struct ResilienceReport {
  int crashes = 0;       ///< node crashes that hit the job
  int restarts = 0;      ///< rollbacks performed (== crashes)
  int pull_retries = 0;  ///< transient registry errors retried
  int checkpoints = 0;   ///< checkpoints written
  double downtime_s = 0.0;            ///< recovery time across crashes
  double lost_work_s = 0.0;           ///< work replayed after rollbacks
  double checkpoint_overhead_s = 0.0; ///< time spent writing checkpoints
  double retry_backoff_s = 0.0;       ///< backoff waited on retries
  double straggler_multiplier = 1.0;  ///< compute slowdown applied
  double link_multiplier = 1.0;       ///< communication slowdown applied
  double ideal_time_s = 0.0;      ///< fault-free execution time
  double effective_time_s = 0.0;  ///< wall time including all overheads

  /// (effective - ideal) / ideal; 0 when ideal is 0.
  double overhead_fraction() const noexcept;
};

/// Optional observer for replay events, called as (kind, wall_time_s,
/// detail_s) with kind one of "crash" (detail = work lost to the
/// rollback), "restart" (detail = recovery cost paid) or "checkpoint"
/// (detail = write cost).  Lets the observability layer turn injected
/// faults into instant trace markers without this module depending on it.
using ReplayEventFn =
    std::function<void(const char* kind, double wall_time_s, double detail_s)>;

/// Checkpoint write cost as a function of the wall-clock time at which
/// the write starts — lets fail-slow hazards (shared-FS brownout windows)
/// stretch checkpoint I/O that lands inside them.
using CheckpointCostFn = std::function<double(double wall_s)>;

/// Replays \p ideal_work_s seconds of work through the crash process.
/// \p next_crash_time is called with the crash ordinal (0, 1, ...) and
/// must return non-decreasing absolute wall times; crashes that land
/// inside downtime or a checkpoint write are masked (the node is not
/// computing).  At most \p max_crashes crashes are injected.
ResilienceReport replay_with_recovery(
    double ideal_work_s, const CheckpointPolicy& checkpoint,
    const CheckpointCostFn& checkpoint_cost, double recovery_cost_s,
    const std::function<double(int)>& next_crash_time, int max_crashes,
    const ReplayEventFn& on_event = {});

}  // namespace hpcs::fault
