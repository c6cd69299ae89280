#include "sched/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace hpcs::sched {

namespace {

SchedConfig validated(SchedConfig config) {
  config.validate();
  return config;
}

}  // namespace

void SchedConfig::validate() const {
  if (nodes < 1 || cores_per_node < 1)
    throw std::invalid_argument(
        "SchedConfig: nodes and cores_per_node must be >= 1");
  if (fabric_penalty < 0.0)
    throw std::invalid_argument(
        "SchedConfig: fabric_penalty must be >= 0");
  if (fabric_saturation < 1)
    throw std::invalid_argument(
        "SchedConfig: fabric_saturation must be >= 1");
  if (queue_capacity < 1)
    throw std::invalid_argument(
        "SchedConfig: queue_capacity must be >= 1");
  if (max_requeues < 0)
    throw std::invalid_argument("SchedConfig: max_requeues must be >= 0");
  if (requeue_delay_s < 0.0)
    throw std::invalid_argument(
        "SchedConfig: requeue_delay_s must be >= 0");
  gateway.validate();
}

std::string_view to_string(JobState s) noexcept {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Deploying: return "deploying";
    case JobState::Running: return "running";
    case JobState::Completed: return "completed";
    case JobState::Failed: return "failed";
    case JobState::Shed: return "shed";
  }
  return "unknown";
}

BatchScheduler::BatchScheduler(SchedConfig config, std::vector<JobSpec> jobs,
                               const gateway::ImageCatalog& catalog,
                               fault::FaultInjector faults,
                               fault::HazardSchedule hazards,
                               obs::Collector* collector)
    : config_(validated(std::move(config))),
      pool_(config_.nodes, config_.cores_per_node),
      catalog_(catalog),
      faults_(std::move(faults)),
      hazards_(std::move(hazards)),
      collector_(collector),
      pipeline_(
          engine_, config_.gateway, config_.gateway_enabled, catalog_,
          hazards_,
          [this](int job, double now) { on_deploy_ready(job, now); },
          collector) {
  records_.reserve(jobs.size());
  for (JobSpec& spec : jobs) {
    JobRecord record;
    record.spec = std::move(spec);
    records_.push_back(std::move(record));
  }
  runtime_.assign(records_.size(), JobRuntime{});
}

void BatchScheduler::register_metrics() {
  if (!collector_) return;
  // Zero-presence: every counter exists (at 0) even on runs that never
  // hit its path, so dashboards and diffs see stable schemas.
  for (const char* name :
       {"sched/submitted", "sched/completed", "sched/failed", "sched/shed",
        "sched/timeout", "sched/requeue", "sched/crash",
        "sched/backfill_start", "sched/deploy/upstream_fetch",
        "sched/deploy/conversion", "sched/deploy/coalesced",
        "sched/deploy/cache_local", "sched/deploy/cache_shared"})
    collector_->count(name, 0.0);
}

SchedResult BatchScheduler::run() {
  if (ran_) throw std::logic_error("BatchScheduler: run() is single-shot");
  ran_ = true;
  register_metrics();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const int job = static_cast<int>(i);
    engine_.schedule_at(records_[i].spec.submit_s,
                        [this, job] { on_submit(job); });
  }
  for (const fault::FaultEvent& crash :
       hazards_.burst_crashes(config_.nodes))
    engine_.schedule_at(crash.time, [this, crash] { on_burst(crash); });
  engine_.run();

  stats_.submitted = records_.size();
  stats_.deploy = pipeline_.stats();
  const double total_cores = static_cast<double>(pool_.total_cores());
  stats_.utilization = stats_.makespan_s > 0.0
                           ? stats_.busy_core_s /
                                 (total_cores * stats_.makespan_s)
                           : 0.0;
  if (collector_) {
    collector_->gauge("sched/utilization", stats_.utilization);
    collector_->gauge("sched/makespan_s", stats_.makespan_s);
    collector_->gauge("sched/max_active_transfers",
                      static_cast<double>(stats_.deploy.max_active_transfers));
  }

  SchedResult result;
  result.config = config_;
  result.stats = std::move(stats_);
  result.jobs = std::move(records_);
  result.allocations = std::move(allocations_);
  return result;
}

bool BatchScheduler::job_before(int a, int b) const {
  const JobSpec& ja = records_[static_cast<std::size_t>(a)].spec;
  const JobSpec& jb = records_[static_cast<std::size_t>(b)].spec;
  if (ja.priority != jb.priority) return ja.priority > jb.priority;
  if (ja.submit_s != jb.submit_s) return ja.submit_s < jb.submit_s;
  return a < b;
}

void BatchScheduler::enqueue(int job) {
  JobRecord& rec = records_[static_cast<std::size_t>(job)];
  rec.state = JobState::Queued;
  runtime_[static_cast<std::size_t>(job)].queued_since = engine_.now();
  const auto it = std::upper_bound(
      pending_.begin(), pending_.end(), job,
      [this](int a, int b) { return job_before(a, b); });
  pending_.insert(it, job);
}

void BatchScheduler::on_submit(int job) {
  const double now = engine_.now();
  JobRecord& rec = records_[static_cast<std::size_t>(job)];
  if (collector_) {
    collector_->count("sched/submitted");
    collector_->instant(1 + job, "submit", "scheduler", now);
  }
  const bool impossible = rec.spec.nodes > config_.nodes ||
                          rec.spec.cores_per_node > config_.cores_per_node;
  if (impossible || queued_count_ >= config_.queue_capacity) {
    rec.state = JobState::Shed;
    rec.end_s = now;
    ++stats_.shed;
    if (collector_) {
      collector_->count("sched/shed");
      collector_->instant(1 + job, "shed", "scheduler", now);
      collector_->ts_count("sched/submitted", now);
      collector_->ts_count("sched/shed", now);
    }
    return;
  }
  ++queued_count_;
  enqueue(job);
  if (collector_) {
    collector_->ts_count("sched/submitted", now);
    collector_->ts_gauge("sched/queue_length", now,
                         static_cast<double>(queued_count_));
  }
  schedule_pass();
}

void BatchScheduler::schedule_pass() {
  // Started jobs leave pending_ in one compaction per pass, not one
  // erase per start.  start_job never touches pending_ (it only
  // schedules events), so the start order is the same either way.
  //
  // Drain the head while it fits; under FIFO a blocked head stalls the
  // whole queue (that is the discipline's defining cost).
  std::size_t first = 0;
  for (; first < pending_.size(); ++first) {
    const int head = pending_[first];
    const JobSpec& spec = records_[static_cast<std::size_t>(head)].spec;
    if (!pool_.fits(spec.nodes, spec.cores_per_node, config_.policy.alloc))
      break;
    start_job(head, false);
  }
  if (first == pending_.size() ||
      config_.policy.queue == QueueDiscipline::Fifo) {
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(first));
    return;
  }

  // EASY backfill: the blocked head holds a reservation at the earliest
  // provable fit time; anything behind it may start only when its
  // walltime guarantees it vacates first.  Each started backfill job
  // releases before the reservation, so the bound stays valid without
  // recomputation inside the scan.
  const int head = pending_[first];
  if (reservation_job_ != head) {
    if (reservation_job_ >= 0 &&
        records_[static_cast<std::size_t>(reservation_job_)].state ==
            JobState::Queued)
      records_[static_cast<std::size_t>(reservation_job_)]
          .reservation_superseded = true;
    reservation_job_ = head;
  }
  const double reservation = compute_reservation(head);
  JobRecord& head_rec = records_[static_cast<std::size_t>(head)];
  if (head_rec.reservation_s < 0.0) head_rec.reservation_s = reservation;
  const double now = engine_.now();
  std::size_t kept = 0;
  pending_[kept++] = head;
  for (std::size_t i = first + 1; i < pending_.size(); ++i) {
    const int job = pending_[i];
    const JobSpec& spec = records_[static_cast<std::size_t>(job)].spec;
    if (pool_.fits(spec.nodes, spec.cores_per_node,
                   config_.policy.alloc) &&
        now + spec.walltime_s <= reservation)
      start_job(job, true);
    else
      pending_[kept++] = job;
  }
  pending_.resize(kept);
}

double BatchScheduler::compute_reservation(int job) const {
  const JobSpec& spec = records_[static_cast<std::size_t>(job)].spec;
  if (pool_.fits(spec.nodes, spec.cores_per_node, config_.policy.alloc))
    return engine_.now();
  const int gate = config_.policy.alloc == AllocMode::Dedicated
                       ? config_.cores_per_node
                       : spec.cores_per_node;
  std::vector<int> free(static_cast<std::size_t>(pool_.nodes()));
  int fitting = 0;  // nodes with at least `gate` free cores
  for (int n = 0; n < pool_.nodes(); ++n) {
    free[static_cast<std::size_t>(n)] = pool_.free_cores(n);
    if (free[static_cast<std::size_t>(n)] >= gate) ++fitting;
  }
  // Walltime kills are unconditional, so start + walltime is a sound
  // upper bound on every active job's release; active_ holds exactly
  // those bounds, ordered by (time, job).
  for (const auto& [release_s, active_job] : active_) {
    const AllocationInterval& interval =
        allocations_[runtime_[static_cast<std::size_t>(active_job)]
                         .interval];
    for (const int n : interval.nodes) {
      int& f = free[static_cast<std::size_t>(n)];
      if (f < gate && f + interval.cores_per_node >= gate) ++fitting;
      f += interval.cores_per_node;
    }
    if (fitting >= spec.nodes) return std::max(release_s, engine_.now());
  }
  // Unreachable: impossible requests are shed at submit, and an empty
  // cluster fits everything else.
  return active_.empty() ? engine_.now() : active_.rbegin()->first;
}

void BatchScheduler::start_job(int job, bool backfilled) {
  const double now = engine_.now();
  JobRecord& rec = records_[static_cast<std::size_t>(job)];
  JobRuntime& rt = runtime_[static_cast<std::size_t>(job)];
  std::vector<int> nodes = pool_.allocate(
      rec.spec.nodes, rec.spec.cores_per_node, config_.policy.alloc);
  if (nodes.empty())
    throw std::logic_error("BatchScheduler: start_job without a fit");
  --queued_count_;
  if (reservation_job_ == job) reservation_job_ = -1;

  rec.state = JobState::Deploying;
  rec.start_s = now;
  if (rec.first_start_s < 0.0) {
    rec.first_start_s = now;
    const double wait = now - rec.spec.submit_s;
    stats_.queue_wait_s.add(wait);
    if (collector_) {
      collector_->observe("sched/queue_wait_s", wait);
      collector_->ts_observe("sched/queue_wait_s", now, wait);
    }
  }
  if (backfilled) {
    rec.backfilled = true;
    ++stats_.backfill_starts;
    if (collector_) {
      collector_->count("sched/backfill_start");
      collector_->ts_count("sched/backfill_start", now);
    }
  }
  if (collector_) {
    collector_->span(1 + job, "queue-wait", "scheduler", rt.queued_since,
                     now - rt.queued_since);
    collector_->ts_gauge("sched/queue_length", now,
                         static_cast<double>(queued_count_));
  }

  AllocationInterval interval;
  interval.job = job;
  interval.start = now;
  interval.cores_per_node =
      pool_.occupied_per_node(rec.spec.cores_per_node, config_.policy.alloc);
  interval.nodes = std::move(nodes);
  rt.interval = allocations_.size();
  allocations_.push_back(std::move(interval));
  active_.emplace(now + rec.spec.walltime_s, job);
  sample_utilization(now);
  rt.walltime_ev = engine_.schedule_at(now + rec.spec.walltime_s,
                                       [this, job] { on_walltime(job); });
  pipeline_.start(job, rec.spec.runtime, rec.spec.image, rec.spec.nodes,
                  now);
}

void BatchScheduler::on_deploy_ready(int job, double now) {
  JobRecord& rec = records_[static_cast<std::size_t>(job)];
  if (rec.state != JobState::Deploying) return;
  JobRuntime& rt = runtime_[static_cast<std::size_t>(job)];
  const bool first_compute = rec.deploy_done_s < 0.0;
  rec.state = JobState::Running;
  rec.deploy_done_s = now;
  const double deploy = now - rec.start_s;
  stats_.deploy_s.add(deploy);
  if (first_compute) {
    const double latency = now - rec.spec.submit_s;
    stats_.start_latency_s.add(latency);
    if (collector_) {
      collector_->observe("sched/start_latency_s", latency);
      collector_->ts_observe("sched/start_latency_s", now, latency);
    }
  }
  if (collector_) {
    collector_->observe("sched/deploy_s", deploy);
    collector_->ts_observe("sched/deploy_s", now, deploy);
    collector_->span(1 + job, "deploy", "deployment", rec.start_s, deploy);
  }

  // Concurrent image traffic pressures the fabric; jobs starting into a
  // pull storm compute slower (sampled once, deterministically, at
  // compute start).
  const double pressure =
      static_cast<double>(pipeline_.active_transfers()) /
      static_cast<double>(config_.fabric_saturation);
  const double stretch =
      1.0 + config_.fabric_penalty * std::min(1.0, pressure);
  const double duration = rec.spec.compute_s * stretch;

  double crash_in = std::numeric_limits<double>::infinity();
  const fault::FaultSpec& fspec = faults_.spec();
  if (fspec.enabled && fspec.node_mtbf_s > 0.0) {
    // Named per-attempt stream: the draw depends only on (seed, job,
    // attempt), never on event interleaving.
    sim::Rng stream = faults_.stream("sched/job/" + std::to_string(job) +
                                     "/run-" + std::to_string(rec.requeues));
    crash_in = stream.exponential(static_cast<double>(rec.spec.nodes) /
                                  fspec.node_mtbf_s);
  }
  if (crash_in < duration) {
    rt.end_ev = engine_.schedule_at(now + crash_in,
                                    [this, job] { on_crash(job); });
  } else {
    rt.end_ev = engine_.schedule_at(now + duration,
                                    [this, job] { on_complete(job); });
  }
}

void BatchScheduler::release_job(int job) {
  const double now = engine_.now();
  JobRecord& rec = records_[static_cast<std::size_t>(job)];
  if (active_.erase({rec.start_s + rec.spec.walltime_s, job}) != 1)
    throw std::logic_error("BatchScheduler: release of job " +
                           std::to_string(job) +
                           " that holds no allocation");
  JobRuntime& rt = runtime_[static_cast<std::size_t>(job)];
  AllocationInterval& interval = allocations_[rt.interval];
  interval.end = now;
  stats_.busy_core_s += static_cast<double>(interval.nodes.size()) *
                        interval.cores_per_node * (now - interval.start);
  pool_.release(interval.nodes, rec.spec.cores_per_node,
                config_.policy.alloc);
  stats_.makespan_s = std::max(stats_.makespan_s, now);
  sample_utilization(now);
}

void BatchScheduler::sample_utilization(double now) {
  if (!collector_) return;
  const double total = static_cast<double>(pool_.total_cores());
  const double busy = total - static_cast<double>(pool_.free_cores());
  collector_->ts_gauge("sched/busy_cores", now, busy);
  collector_->ts_gauge("sched/node_utilization", now,
                       total > 0.0 ? busy / total : 0.0);
}

void BatchScheduler::on_complete(int job) {
  const double now = engine_.now();
  JobRecord& rec = records_[static_cast<std::size_t>(job)];
  JobRuntime& rt = runtime_[static_cast<std::size_t>(job)];
  rt.end_ev = kNoEvent;
  if (rt.walltime_ev != kNoEvent) {
    engine_.cancel(rt.walltime_ev);
    rt.walltime_ev = kNoEvent;
  }
  if (collector_)
    collector_->span(1 + job, "compute", "phase", rec.deploy_done_s,
                     now - rec.deploy_done_s);
  release_job(job);
  rec.state = JobState::Completed;
  rec.end_s = now;
  ++stats_.completed;
  stats_.turnaround_s.add(now - rec.spec.submit_s);
  if (collector_) {
    collector_->count("sched/completed");
    collector_->ts_count("sched/completed", now);
  }
  schedule_pass();
}

void BatchScheduler::requeue_or_fail(int job) {
  const double now = engine_.now();
  JobRecord& rec = records_[static_cast<std::size_t>(job)];
  if (rec.requeues < config_.max_requeues) {
    ++rec.requeues;
    ++stats_.requeues;
    ++queued_count_;
    rec.state = JobState::Queued;
    if (collector_) {
      collector_->count("sched/requeue");
      collector_->ts_count("sched/requeue", now);
      collector_->span(1 + job, "requeue", "fault", now,
                       config_.requeue_delay_s);
    }
    engine_.schedule(config_.requeue_delay_s, [this, job] {
      enqueue(job);
      schedule_pass();
    });
    return;
  }
  rec.state = JobState::Failed;
  rec.end_s = now;
  ++stats_.failed;
  if (collector_) {
    collector_->count("sched/failed");
    collector_->ts_count("sched/failed", now);
  }
}

void BatchScheduler::on_crash(int job) {
  const double now = engine_.now();
  JobRecord& rec = records_[static_cast<std::size_t>(job)];
  if (rec.state != JobState::Running) return;
  JobRuntime& rt = runtime_[static_cast<std::size_t>(job)];
  rt.end_ev = kNoEvent;
  if (rt.walltime_ev != kNoEvent) {
    engine_.cancel(rt.walltime_ev);
    rt.walltime_ev = kNoEvent;
  }
  ++stats_.crashes;
  if (collector_) {
    collector_->count("sched/crash");
    collector_->ts_count("sched/crash", now);
    collector_->instant(1 + job, "crash", "fault", now);
    collector_->span(1 + job, "compute", "phase", rec.deploy_done_s,
                     now - rec.deploy_done_s);
  }
  release_job(job);
  requeue_or_fail(job);
  schedule_pass();
}

void BatchScheduler::on_walltime(int job) {
  const double now = engine_.now();
  JobRecord& rec = records_[static_cast<std::size_t>(job)];
  if (rec.state != JobState::Deploying && rec.state != JobState::Running)
    return;
  JobRuntime& rt = runtime_[static_cast<std::size_t>(job)];
  rt.walltime_ev = kNoEvent;
  if (rec.state == JobState::Deploying) {
    pipeline_.cancel(job);
    if (collector_)
      collector_->span(1 + job, "deploy", "deployment", rec.start_s,
                       now - rec.start_s);
  } else {
    if (rt.end_ev != kNoEvent) {
      engine_.cancel(rt.end_ev);
      rt.end_ev = kNoEvent;
    }
    if (collector_)
      collector_->span(1 + job, "compute", "phase", rec.deploy_done_s,
                       now - rec.deploy_done_s);
  }
  rec.timed_out = true;
  ++stats_.timeouts;
  if (collector_) {
    collector_->count("sched/timeout");
    collector_->ts_count("sched/timeout", now);
    collector_->instant(1 + job, "timeout", "fault", now);
  }
  release_job(job);
  rec.state = JobState::Failed;
  rec.end_s = now;
  ++stats_.failed;
  if (collector_) {
    collector_->count("sched/failed");
    collector_->ts_count("sched/failed", now);
  }
  schedule_pass();
}

void BatchScheduler::on_burst(const fault::FaultEvent& crash) {
  const double now = engine_.now();
  // One per-node crash from a rack burst: every job holding cores on the
  // node dies (with node sharing that can be several), in job-id order.
  std::vector<int> victims;
  for (const auto& [release_s, job] : active_) {
    const AllocationInterval& interval =
        allocations_[runtime_[static_cast<std::size_t>(job)].interval];
    if (std::find(interval.nodes.begin(), interval.nodes.end(),
                  crash.node) != interval.nodes.end())
      victims.push_back(job);
  }
  std::sort(victims.begin(), victims.end());
  for (const int job : victims) {
    JobRecord& rec = records_[static_cast<std::size_t>(job)];
    JobRuntime& rt = runtime_[static_cast<std::size_t>(job)];
    if (rt.end_ev != kNoEvent) {
      engine_.cancel(rt.end_ev);
      rt.end_ev = kNoEvent;
    }
    if (rt.walltime_ev != kNoEvent) {
      engine_.cancel(rt.walltime_ev);
      rt.walltime_ev = kNoEvent;
    }
    if (rec.state == JobState::Deploying) pipeline_.cancel(job);
    ++stats_.crashes;
    if (collector_) {
      collector_->count("sched/crash");
      collector_->ts_count("sched/crash", now);
      collector_->instant(1 + job, "rack-burst", "fault", now);
      if (rec.state == JobState::Running)
        collector_->span(1 + job, "compute", "phase", rec.deploy_done_s,
                         now - rec.deploy_done_s);
    }
    release_job(job);
    requeue_or_fail(job);
  }
  if (!victims.empty()) schedule_pass();
}

}  // namespace hpcs::sched
