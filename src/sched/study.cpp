#include "sched/study.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "fault/hazard.hpp"
#include "fault/schedule.hpp"
#include "fault/spec.hpp"
#include "gateway/workload.hpp"
#include "obs/slo.hpp"
#include "sim/csv.hpp"
#include "sim/rng.hpp"

namespace hpcs::sched {

namespace {

/// Sound horizon bound for hazard schedules: every job terminates within
/// (max_requeues + 1) walltime-bounded attempts plus requeue delays.
double run_horizon(const std::vector<JobSpec>& jobs,
                   const SchedConfig& config) {
  double last_submit = 0.0;
  double max_walltime = 0.0;
  for (const JobSpec& job : jobs) {
    last_submit = std::max(last_submit, job.submit_s);
    max_walltime = std::max(max_walltime, job.walltime_s);
  }
  const double attempts = static_cast<double>(config.max_requeues + 1);
  return last_submit +
         attempts * (max_walltime + config.requeue_delay_s) +
         max_walltime;
}

}  // namespace

void SchedGridSpec::validate() const {
  if (policies.empty() || mixes.empty() || loads.empty())
    throw std::invalid_argument("SchedGridSpec: every axis needs a value");
  for (const std::string& p : policies) (void)SchedPolicy::preset(p);
  for (const std::string& m : mixes) (void)RuntimeMix::preset(m);
  for (const double load : loads)
    if (load <= 0)
      throw std::invalid_argument("SchedGridSpec: loads must be > 0");
  (void)fault::FaultSpec::preset(faults);
  (void)fault::HazardSpec::preset(hazards);
  if (timeseries_window_s < 0 || !std::isfinite(timeseries_window_s))
    throw std::invalid_argument(
        "SchedGridSpec: timeseries_window_s must be >= 0");
  config.validate();
  workload.validate();
}

std::string sched_cell_key(const std::string& policy, const std::string& mix,
                           double load, const std::string& faults,
                           const std::string& hazards) {
  return policy + "/" + mix + "/load-" + sim::CsvWriter::cell(load) + "/" +
         faults + "/" + hazards;
}

SchedCellResult run_sched_cell(const SchedGridSpec& spec,
                               const std::string& policy,
                               const std::string& mix, double load,
                               bool observe) {
  SchedCellResult cell;
  cell.key = sched_cell_key(policy, mix, load, spec.faults, spec.hazards);
  cell.policy = policy;
  cell.mix = mix;
  cell.load = load;

  SchedWorkloadSpec workload = spec.workload;
  workload.mix = mix;
  workload.load = load;

  SchedConfig config = spec.config;
  config.policy = SchedPolicy::preset(policy);
  config.gateway_enabled = spec.gateway_enabled;

  const std::uint64_t seed = study::cell_seed(spec.seed, cell.key);
  const sim::Rng root{seed};
  const gateway::ImageCatalog catalog(workload.catalog_spec(), root);
  std::vector<JobSpec> jobs = generate_jobs(workload, root);
  fault::FaultInjector faults(fault::FaultSpec::preset(spec.faults), seed);
  const fault::HazardInjector hazard_injector(
      fault::HazardSpec::preset(spec.hazards), seed);
  fault::HazardSchedule hazards =
      hazard_injector.schedule(run_horizon(jobs, config), config.nodes);

  const std::shared_ptr<obs::MemorySink> sink =
      observe ? std::make_shared<obs::MemorySink>() : nullptr;
  obs::Collector collector(sink);  // null sink = disabled, zero cost
  if (spec.timeseries_window_s > 0)
    collector.enable_timeseries(spec.timeseries_window_s);

  BatchScheduler scheduler(config, std::move(jobs), catalog,
                           std::move(faults), std::move(hazards),
                           &collector);
  SchedResult result = scheduler.run();
  cell.stats = std::move(result.stats);
  if (collector.timeseries_enabled()) {
    // SLO burn-rate pass over this cell's windows; alert intervals land
    // on track 0 — the service-level lane (jobs occupy tracks 1+job) —
    // so they read as facility annotations in the trace viewer.
    cell.timeseries = collector.timeseries();
    for (const obs::SloReport& report :
         obs::evaluate_slos(cell.timeseries,
                            obs::default_slos(cell.timeseries)))
      obs::emit_slo_alerts(collector, 0, report);
  }
  if (observe) {
    cell.trace = sink->take();
    cell.metrics = collector.metrics();
  }
  return cell;
}

SchedGridResult run_sched_grid(const SchedGridSpec& spec, int jobs,
                               bool observe) {
  spec.validate();

  struct CellParams {
    std::string policy;
    std::string mix;
    double load = 1.0;
  };
  std::vector<CellParams> params;
  for (const std::string& policy : spec.policies)
    for (const std::string& mix : spec.mixes)
      for (const double load : spec.loads)
        params.push_back(CellParams{policy, mix, load});

  return study::run_grid<SchedGridResult>(
      spec.name, params, jobs, [&](const CellParams& p) {
        return run_sched_cell(spec, p.policy, p.mix, p.load, observe);
      });
}

void SchedGridResult::write_csv(std::ostream& out) const {
  sim::CsvWriter csv(
      out, {"cell",           "policy",
            "mix",            "load",
            "faults",         "hazards",
            "submitted",      "completed",
            "failed",         "shed",
            "timeouts",       "requeues",
            "crashes",        "backfill_starts",
            "utilization",    "makespan_s",
            "upstream_fetches", "conversions",
            "coalesced",      "hits_local",
            "hits_shared",    "misses",
            "queue_wait_p50_s", "deploy_p50_s",
            "start_p50_s",    "start_p95_s",
            "start_p99_s",    "start_mean_s",
            "start_max_s"});
  for (const SchedCellResult& cell : cells) {
    const SchedStats& s = cell.stats;
    // The key embeds faults/hazards; split them back out of it so the
    // CSV stays greppable per axis.
    const std::string& key = cell.key;
    const std::size_t last_slash = key.rfind('/');
    const std::size_t prev_slash = key.rfind('/', last_slash - 1);
    const std::string faults = key.substr(
        prev_slash + 1, last_slash - prev_slash - 1);
    const std::string hazards = key.substr(last_slash + 1);
    csv.row(
        {sim::CsvWriter::escape(key),
         cell.policy,
         cell.mix,
         sim::CsvWriter::cell(cell.load),
         faults,
         hazards,
         sim::CsvWriter::cell(static_cast<std::size_t>(s.submitted)),
         sim::CsvWriter::cell(static_cast<std::size_t>(s.completed)),
         sim::CsvWriter::cell(static_cast<std::size_t>(s.failed)),
         sim::CsvWriter::cell(static_cast<std::size_t>(s.shed)),
         sim::CsvWriter::cell(static_cast<std::size_t>(s.timeouts)),
         sim::CsvWriter::cell(static_cast<std::size_t>(s.requeues)),
         sim::CsvWriter::cell(static_cast<std::size_t>(s.crashes)),
         sim::CsvWriter::cell(static_cast<std::size_t>(s.backfill_starts)),
         sim::CsvWriter::cell(s.utilization),
         sim::CsvWriter::cell(s.makespan_s),
         sim::CsvWriter::cell(
             static_cast<std::size_t>(s.deploy.upstream_fetches)),
         sim::CsvWriter::cell(static_cast<std::size_t>(s.deploy.conversions)),
         sim::CsvWriter::cell(static_cast<std::size_t>(s.deploy.coalesced)),
         sim::CsvWriter::cell(
             static_cast<std::size_t>(s.deploy.cache.local_hits)),
         sim::CsvWriter::cell(
             static_cast<std::size_t>(s.deploy.cache.shared_hits)),
         sim::CsvWriter::cell(
             static_cast<std::size_t>(s.deploy.cache.misses)),
         study::quantile_cell(s.queue_wait_s, 0.5),
         study::quantile_cell(s.deploy_s, 0.5),
         study::quantile_cell(s.start_latency_s, 0.5),
         study::quantile_cell(s.start_latency_s, 0.95),
         study::quantile_cell(s.start_latency_s, 0.99),
         sim::CsvWriter::cell(
             s.start_latency_s.empty() ? 0.0 : s.start_latency_s.mean()),
         sim::CsvWriter::cell(
             s.start_latency_s.empty() ? 0.0 : s.start_latency_s.max())});
  }
}

}  // namespace hpcs::sched
