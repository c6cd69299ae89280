#pragma once

/// \file scheduler.hpp
/// \brief Slurm-like discrete-event batch workload manager.
///
/// One BatchScheduler run takes a deterministic job stream (workload.hpp)
/// through the full facility pipeline on a simulated cluster:
///
///   submit -> queue (priority + FIFO or EASY backfill)
///          -> allocate (dedicated nodes or core-level sharing)
///          -> deploy the job's container image (DeployPipeline: gateway
///             cache / single-flight / conversion, shared-FS + registry
///             contention) *on the allocated nodes* — deployment burns
///             allocation, which is the cost the paper's runtime
///             comparison is about
///          -> compute (stretched by fabric pressure from concurrent
///             image traffic) -> complete
///
/// with three exit ramps: walltime kill (unconditional — what makes
/// backfill reservations sound), node-crash / rack-burst requeue (up to
/// max_requeues), and admission shed when the queue is full.
///
/// Invariants the test harness holds over randomized streams:
///   * no node is ever oversubscribed (NodePool throws, and tests
///     reconstruct occupancy from the allocation intervals);
///   * job conservation: submitted = completed + failed + shed (run()
///     also checks it, with an empty queue and no allocation left, in
///     every build);
///   * conservative backfill never delays the blocked head job past its
///     first recorded reservation (unless a higher-priority arrival
///     superseded it);
///   * equal-priority FIFO starts in submit order.

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "fault/hazard.hpp"
#include "fault/schedule.hpp"
#include "gateway/config.hpp"
#include "gateway/workload.hpp"
#include "obs/collector.hpp"
#include "sched/deploy.hpp"
#include "sched/nodes.hpp"
#include "sched/policy.hpp"
#include "sched/queue.hpp"
#include "sched/workload.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"

namespace hpcs::sched {

struct SchedConfig {
  int nodes = 64;
  int cores_per_node = 48;
  SchedPolicy policy = SchedPolicy::preset("backfill-dedicated");

  /// true: image traffic contends (processor-sharing pools, bounded
  /// conversion workers, coalescing).  false: the uncontended control.
  bool gateway_enabled = true;
  gateway::GatewayConfig gateway;

  /// Compute stretch from concurrent image traffic on the fabric:
  /// factor = 1 + penalty * min(1, active_transfers / saturation),
  /// sampled when a job starts computing.
  double fabric_penalty = 0.5;
  int fabric_saturation = 16;

  int queue_capacity = 100000;  ///< pending jobs beyond this are shed
  int max_requeues = 2;         ///< crash recoveries before giving up
  double requeue_delay_s = 30.0;

  /// \throws std::invalid_argument for non-positive dimensions/limits.
  void validate() const;
};

enum class JobState { Queued, Deploying, Running, Completed, Failed, Shed };

std::string_view to_string(JobState s) noexcept;

/// One node-occupancy interval, closed when the job releases its nodes.
/// The invariant tests rebuild per-node core usage from these.
struct AllocationInterval {
  int job = -1;
  double start = 0.0;
  double end = -1.0;  ///< -1 while open (never in a finished result)
  std::vector<int> nodes;
  int cores_per_node = 0;  ///< cores occupied on each listed node
};

struct JobRecord {
  JobSpec spec;
  JobState state = JobState::Queued;
  double start_s = -1.0;        ///< last allocation time
  double first_start_s = -1.0;  ///< first allocation time
  double deploy_done_s = -1.0;  ///< last compute start
  double end_s = -1.0;          ///< terminal time
  /// Head-of-queue backfill reservation, first time this job blocked the
  /// queue (-1 when it never did).
  double reservation_s = -1.0;
  /// A higher-priority arrival displaced this job from the queue head
  /// after its reservation was recorded (the reservation guarantee is
  /// void by design).
  bool reservation_superseded = false;
  bool backfilled = false;  ///< started ahead of a blocked head
  bool timed_out = false;   ///< killed at the walltime limit
  int requeues = 0;         ///< crash recoveries consumed
};

struct SchedStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t timeouts = 0;  ///< walltime kills (subset of failed)
  std::uint64_t requeues = 0;
  std::uint64_t crashes = 0;  ///< node-crash + rack-burst job kills
  std::uint64_t backfill_starts = 0;

  sim::Samples queue_wait_s;     ///< submit -> first allocation
  sim::Samples deploy_s;         ///< allocation -> image ready
  sim::Samples start_latency_s;  ///< submit -> first compute start
  sim::Samples turnaround_s;     ///< submit -> completion

  double busy_core_s = 0.0;  ///< integral of occupied cores over time
  double makespan_s = 0.0;   ///< last release time
  double utilization = 0.0;  ///< busy_core_s / (total cores x makespan)

  DeployStats deploy;
};

struct SchedResult {
  SchedConfig config;
  SchedStats stats;
  std::vector<JobRecord> jobs;
  std::vector<AllocationInterval> allocations;
};

class BatchScheduler {
 public:
  /// \p catalog must outlive run().  \p faults drives per-attempt crash
  /// draws (inert when disabled); \p hazards contributes brownout
  /// stretching (via the pipeline) and rack-burst kills.
  /// \throws std::invalid_argument when the config fails validate().
  BatchScheduler(SchedConfig config, std::vector<JobSpec> jobs,
                 const gateway::ImageCatalog& catalog,
                 fault::FaultInjector faults, fault::HazardSchedule hazards,
                 obs::Collector* collector = nullptr);

  /// Scheduled events capture `this` and the pipeline holds `engine_` by
  /// reference, so a copy or move would leave them pointing at the old
  /// object.
  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Runs the whole workload to completion (the event queue drains —
  /// every job reaches a terminal state).  Call once.
  /// \throws std::logic_error when the run ends with a job still queued
  ///         or holding nodes, or with submitted != completed + failed +
  ///         shed (a scheduler bug, never a workload condition).
  SchedResult run();

 private:
  static constexpr sim::EventId kNoEvent = ~sim::EventId{0};

  /// Mutable per-job bookkeeping the public JobRecord doesn't carry.
  struct JobRuntime {
    sim::EventId walltime_ev = kNoEvent;
    sim::EventId end_ev = kNoEvent;  ///< pending completion or crash
    double queued_since = 0.0;       ///< submit or last requeue time
    std::size_t interval = 0;        ///< open AllocationInterval index
  };

  void on_submit(int job);
  /// One scheduling pass: drain the head while it fits, then (backfill
  /// only) start the queued jobs that fit now and vacate by the blocked
  /// head's reservation, read off the queue's shape index.  Costs
  /// O(shapes + candidates x log candidates + starts x log jobs), plus
  /// O(active + nodes) when the reservation must be computed; never
  /// O(pending).
  void schedule_pass();
  void start_job(int job, bool backfilled);
  void on_deploy_ready(int job, double now);
  void on_complete(int job);
  void on_crash(int job);
  void on_walltime(int job);
  void on_burst(const fault::FaultEvent& burst);
  /// Ends the job's current attempt, whatever ended it: cancels its
  /// pending completion and walltime events, closes the open phase span
  /// (cancelling the deploy if it was still deploying), and releases its
  /// nodes.  The one caller of release_job and pipeline_.cancel.
  void end_attempt(int job);
  /// Terminal failure: the job gives up for good.
  void fail_job(int job);
  void requeue_or_fail(int job);
  void release_job(int job);
  void enqueue(int job);
  /// Windowed busy-core / utilization gauges after every allocation
  /// change (no-op unless temporal telemetry is enabled).
  void sample_utilization(double now);
  /// Earliest future time the blocked head provably fits, simulating
  /// walltime-bounded releases of the active jobs in release order.
  double compute_reservation(int job);
  /// Throws std::logic_error unless the finished run left nothing queued
  /// or allocated and conserved every job.
  void check_drained() const;

  SchedConfig config_;
  sim::Engine engine_;
  NodePool pool_;
  const gateway::ImageCatalog& catalog_;
  fault::FaultInjector faults_;
  fault::HazardSchedule hazards_;
  obs::Collector* collector_;  ///< null unless recording
  DeployPipeline pipeline_;

  std::vector<JobRecord> records_;
  std::vector<JobRuntime> runtime_;
  std::vector<AllocationInterval> allocations_;
  JobQueue queue_;  ///< queued jobs, in queue order and by shape
  /// Allocated jobs as (start + walltime, job): the walltime-bounded
  /// release order compute_reservation walks.
  std::set<std::pair<double, int>> active_;
  std::vector<int> free_after_;  ///< per-node free cores, reservation walk
  int reservation_job_ = -1;  ///< head whose reservation is recorded
  int queued_count_ = 0;      ///< pending + requeue-delayed jobs
  SchedStats stats_;
  bool ran_ = false;
};

}  // namespace hpcs::sched
