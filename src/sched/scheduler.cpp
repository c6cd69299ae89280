#include "sched/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace hpcs::sched {

namespace {

SchedConfig validated(SchedConfig config) {
  config.validate();
  return config;
}

/// Fills the sched/* counters, gauges and histograms from \p s, once,
/// when the run ends; every counter is present, zeros included.
void publish(const SchedStats& s, obs::Collector& c) {
  const auto count = [&c](std::string_view name, std::uint64_t n) {
    c.count(name, static_cast<double>(n));
  };
  count("sched/submitted", s.submitted);
  count("sched/completed", s.completed);
  count("sched/failed", s.failed);
  count("sched/shed", s.shed);
  count("sched/timeout", s.timeouts);
  count("sched/requeue", s.requeues);
  count("sched/crash", s.crashes);
  count("sched/backfill_start", s.backfill_starts);
  c.gauge("sched/utilization", s.utilization);
  c.gauge("sched/makespan_s", s.makespan_s);
  c.observe("sched/queue_wait_s", s.queue_wait_s);
  c.observe("sched/deploy_s", s.deploy_s);
  c.observe("sched/start_latency_s", s.start_latency_s);
  publish(s.deploy, c);
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
      collector_(collector && collector->enabled() ? collector : nullptr),
      pipeline_(
          engine_, config_.gateway, config_.gateway_enabled, catalog_,
          hazards_,
          [this](int job, double now) { on_deploy_ready(job, now); },
          collector_) {
  records_.reserve(jobs.size());
  for (JobSpec& spec : jobs) {
    JobRecord record;
    record.spec = std::move(spec);
    records_.push_back(std::move(record));
  }
  runtime_.assign(records_.size(), JobRuntime{});
  std::vector<JobQueue::Job> queued(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const JobSpec& spec = records_[i].spec;
    queued[i] = {spec.priority, spec.submit_s,
                 pool_.occupied_per_node(spec.cores_per_node,
                                         config_.policy.alloc),
                 spec.nodes, spec.walltime_s};
  }
  queue_ = JobQueue(queued);
}

SchedResult BatchScheduler::run() {
  if (ran_) throw std::logic_error("BatchScheduler: run() is single-shot");
  ran_ = true;
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
  check_drained();
  stats_.deploy = pipeline_.stats();
  const double total_cores = static_cast<double>(pool_.total_cores());
  stats_.utilization = stats_.makespan_s > 0.0
                           ? stats_.busy_core_s /
                                 (total_cores * stats_.makespan_s)
                           : 0.0;
  if (collector_) publish(stats_, *collector_);

  SchedResult result;
  result.config = config_;
  result.stats = std::move(stats_);
  result.jobs = std::move(records_);
  result.allocations = std::move(allocations_);
  return result;
}

void BatchScheduler::check_drained() const {
  const auto fail = [](const std::string& what) {
    throw std::logic_error("BatchScheduler: run ended with " + what);
  };
  if (!queue_.empty() || queue_.indexed() != 0)
    fail(std::to_string(queue_.size()) + " job(s) queued and " +
         std::to_string(queue_.indexed()) + " in the shape index");
  if (!active_.empty())
    fail(std::to_string(active_.size()) + " job(s) holding nodes");
  if (stats_.submitted != stats_.completed + stats_.failed + stats_.shed)
    fail("submitted " + std::to_string(stats_.submitted) +
         " != completed + failed + shed " +
         std::to_string(stats_.completed + stats_.failed + stats_.shed));
}

void BatchScheduler::enqueue(int job) {
  JobRecord& rec = records_[static_cast<std::size_t>(job)];
  rec.state = JobState::Queued;
  runtime_[static_cast<std::size_t>(job)].queued_since = engine_.now();
  queue_.push(job);
}

void BatchScheduler::on_submit(int job) {
  const double now = engine_.now();
  JobRecord& rec = records_[static_cast<std::size_t>(job)];
  if (collector_) collector_->instant(1 + job, "submit", "scheduler", now);
  const bool impossible = rec.spec.nodes > config_.nodes ||
                          rec.spec.cores_per_node > config_.cores_per_node;
  if (impossible || queued_count_ >= config_.queue_capacity) {
    rec.state = JobState::Shed;
    rec.end_s = now;
    ++stats_.shed;
    if (collector_) {
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
  // Drain the head while it fits; under FIFO a blocked head stalls the
  // whole queue (that is the discipline's defining cost).
  while (!queue_.empty()) {
    const int head = queue_.head();
    const JobSpec& spec = records_[static_cast<std::size_t>(head)].spec;
    if (!pool_.fits(spec.nodes, spec.cores_per_node, config_.policy.alloc))
      break;
    start_job(head, false);
  }
  if (queue_.empty() || config_.policy.queue == QueueDiscipline::Fifo)
    return;

  // EASY backfill: the blocked head holds a reservation at the earliest
  // provable fit time; anything behind it may start only when its
  // walltime guarantees it vacates first.  Each started backfill job
  // releases before the reservation, so the bound stays valid without
  // recomputation inside the pass.
  const int head = queue_.head();
  if (reservation_job_ != head) {
    if (reservation_job_ >= 0 &&
        records_[static_cast<std::size_t>(reservation_job_)].state ==
            JobState::Queued)
      records_[static_cast<std::size_t>(reservation_job_)]
          .reservation_superseded = true;
    reservation_job_ = head;
  }
  JobRecord& head_rec = records_[static_cast<std::size_t>(head)];
  // With no queued shape fitting now, nothing can start; the reservation
  // is then needed only to record the head's first one.
  if (head_rec.reservation_s >= 0.0 && !queue_.any_shape_fits(pool_))
    return;
  const double reservation = compute_reservation(head);
  if (head_rec.reservation_s < 0.0) head_rec.reservation_s = reservation;
  queue_.backfill(pool_, engine_.now(), reservation,
                  [this](int job) { start_job(job, true); });
}

double BatchScheduler::compute_reservation(int job) {
  const JobSpec& spec = records_[static_cast<std::size_t>(job)].spec;
  if (pool_.fits(spec.nodes, spec.cores_per_node, config_.policy.alloc))
    return engine_.now();
  const int gate =
      pool_.occupied_per_node(spec.cores_per_node, config_.policy.alloc);
  std::vector<int>& free = free_after_;
  free.resize(static_cast<std::size_t>(pool_.nodes()));
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
  queue_.erase(job);
  --queued_count_;
  if (reservation_job_ == job) reservation_job_ = -1;

  rec.state = JobState::Deploying;
  rec.start_s = now;
  if (rec.first_start_s < 0.0) {
    rec.first_start_s = now;
    const double wait = now - rec.spec.submit_s;
    stats_.queue_wait_s.add(wait);
    if (collector_) collector_->ts_observe("sched/queue_wait_s", now, wait);
  }
  if (backfilled) {
    rec.backfilled = true;
    ++stats_.backfill_starts;
    if (collector_) collector_->ts_count("sched/backfill_start", now);
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
    if (collector_)
      collector_->ts_observe("sched/start_latency_s", now, latency);
  }
  if (collector_) {
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

void BatchScheduler::end_attempt(int job) {
  const double now = engine_.now();
  JobRecord& rec = records_[static_cast<std::size_t>(job)];
  JobRuntime& rt = runtime_[static_cast<std::size_t>(job)];
  // The event that ended the attempt has fired already; cancelling its
  // stale id is a no-op.
  for (sim::EventId* ev : {&rt.end_ev, &rt.walltime_ev}) {
    if (*ev != kNoEvent) engine_.cancel(*ev);
    *ev = kNoEvent;
  }
  if (rec.state == JobState::Deploying) {
    pipeline_.cancel(job);
    if (collector_)
      collector_->span(1 + job, "deploy", "deployment", rec.start_s,
                       now - rec.start_s);
  } else if (collector_) {
    collector_->span(1 + job, "compute", "phase", rec.deploy_done_s,
                     now - rec.deploy_done_s);
  }
  release_job(job);
}

void BatchScheduler::fail_job(int job) {
  const double now = engine_.now();
  JobRecord& rec = records_[static_cast<std::size_t>(job)];
  rec.state = JobState::Failed;
  rec.end_s = now;
  ++stats_.failed;
  if (collector_) collector_->ts_count("sched/failed", now);
}

void BatchScheduler::on_complete(int job) {
  const double now = engine_.now();
  JobRecord& rec = records_[static_cast<std::size_t>(job)];
  end_attempt(job);
  rec.state = JobState::Completed;
  rec.end_s = now;
  ++stats_.completed;
  stats_.turnaround_s.add(now - rec.spec.submit_s);
  if (collector_) collector_->ts_count("sched/completed", now);
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
  fail_job(job);
}

void BatchScheduler::on_crash(int job) {
  const double now = engine_.now();
  if (records_[static_cast<std::size_t>(job)].state != JobState::Running)
    return;
  end_attempt(job);
  ++stats_.crashes;
  if (collector_) {
    collector_->ts_count("sched/crash", now);
    collector_->instant(1 + job, "crash", "fault", now);
  }
  requeue_or_fail(job);
  schedule_pass();
}

void BatchScheduler::on_walltime(int job) {
  const double now = engine_.now();
  JobRecord& rec = records_[static_cast<std::size_t>(job)];
  if (rec.state != JobState::Deploying && rec.state != JobState::Running)
    return;
  end_attempt(job);
  rec.timed_out = true;
  ++stats_.timeouts;
  if (collector_) {
    collector_->ts_count("sched/timeout", now);
    collector_->instant(1 + job, "timeout", "fault", now);
  }
  fail_job(job);
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
    end_attempt(job);
    ++stats_.crashes;
    if (collector_) {
      collector_->ts_count("sched/crash", now);
      collector_->instant(1 + job, "rack-burst", "fault", now);
    }
    requeue_or_fail(job);
  }
  if (!victims.empty()) schedule_pass();
}

}  // namespace hpcs::sched
