// sched-backfill: the scheduler grid (fifo-dedicated / backfill-dedicated /
// backfill-share x bare-metal / container-heavy x loads) through
// run_sched_grid, with faults and hazards on and observability off.

#include <algorithm>
#include <sstream>

#include "core/thread_pool.hpp"
#include "fault/hazard.hpp"
#include "fault/schedule.hpp"
#include "fault/spec.hpp"
#include "sched/study.hpp"
#include "sim/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace hsc = hpcs::sched;
namespace hf = hpcs::fault;

namespace {

/// Jobs per grid cell: enough that the backfill reservation scan
/// dominates the backfill cells.
constexpr int kJobs = 4000;

/// The horizon run_sched_cell draws hazards over: every job terminates
/// within (max_requeues + 1) walltime-bounded attempts plus requeue
/// delays after its submit.
double run_horizon(const std::vector<hsc::JobSpec>& jobs,
                   const hsc::SchedConfig& config) {
  double last_submit = 0.0;
  double max_walltime = 0.0;
  for (const hsc::JobSpec& job : jobs) {
    last_submit = std::max(last_submit, job.submit_s);
    max_walltime = std::max(max_walltime, job.walltime_s);
  }
  const double attempts = static_cast<double>(config.max_requeues + 1);
  return last_submit + attempts * (max_walltime + config.requeue_delay_s) +
         max_walltime;
}

class SchedBackfill final : public Workload {
 public:
  SchedBackfill(std::uint64_t seed, int workers)
      : seed_(seed), workers_(workers) {}

  void setup(Tracer* tracer) override {
    const Tracer::Scope scope(tracer, "sched.spec");
    spec_ = hsc::SchedGridSpec{};
    spec_.policies = {"fifo-dedicated", "backfill-dedicated",
                      "backfill-share"};
    spec_.mixes = {"bare-metal", "container-heavy"};
    spec_.loads = {1.0, 2.0};
    spec_.faults = "moderate";
    spec_.hazards = "storm";
    spec_.workload.jobs = kJobs;
    spec_.seed = seed_;
    spec_.validate();
  }

  void run() override {
    grid_ = hsc::run_sched_grid(spec_, workers_, /*observe=*/false);
    fold(nullptr);
  }

  void run_traced(Tracer& tracer) override {
    struct Params {
      std::string policy, mix;
      double load = 1.0;
    };
    std::vector<Params> params;
    for (const std::string& p : spec_.policies)
      for (const std::string& m : spec_.mixes)
        for (const double l : spec_.loads) params.push_back(Params{p, m, l});
    grid_ = hsc::SchedGridResult{};
    grid_.name = spec_.name;
    grid_.jobs = workers_;
    grid_.cells.resize(params.size());
    {
      const Tracer::Scope pool_scope(&tracer, "core.pool");
      hpcs::study::TaskPool pool(workers_);
      for (std::size_t i = 0; i < params.size(); ++i)
        pool.submit([&, i, parent = pool_scope.id()] {
          const Params& p = params[i];
          const bool backfill = p.policy.rfind("backfill", 0) == 0;
          const Tracer::Scope scope(
              &tracer, backfill ? "sched.backfill_cells" : "sched.fifo_cells",
              parent);
          grid_.cells[i] = hsc::run_sched_cell(spec_, p.policy, p.mix,
                                               p.load, /*observe=*/false);
        });
      pool.wait_idle();
    }
    fold(&tracer);
  }

  void check(Gate& gate) override {
    std::istringstream csv(csv_);
    std::string row;
    std::getline(csv, row);  // header
    for (const hsc::SchedCellResult& cell : grid_.cells) {
      if (!std::getline(csv, row)) {
        gate.fail(cell.key, "CSV has no row for this cell");
        continue;
      }
      gate.check(cell.key, digest(row), sched_conservation_error(cell.stats));
    }
  }

  void split(Tracer& tracer, Gate& gate) override {
    const std::uint64_t seed = derived_seed(seed_, "sched-split");
    const auto one = [&](std::string_view label, const std::string& policy,
                         int jobs) {
      const Tracer::Scope scope(&tracer, label);
      const hsc::SchedStats stats = split_cell(tracer, policy, jobs, seed);
      gate.check_invariant(std::string(label), sched_conservation_error(stats));
    };
    one("sched.split/fifo-n", "fifo-dedicated", kJobs);
    one("sched.split/fifo-2n", "fifo-dedicated", 2 * kJobs);
    one("sched.split/backfill-n", "backfill-dedicated", kJobs);
    one("sched.split/backfill-2n", "backfill-dedicated", 2 * kJobs);
  }

  void layer_values(const std::vector<Span>& spans,
                    Values& values) const override {
    pool_values(spans, "core.pool",
                {"sched.backfill_cells", "sched.fifo_cells"}, workers_,
                values);
    double jobs = 0, backfill = 0, requeues = 0, deploys = 0, coalesced = 0;
    double fetches = 0, transfers = 0, crashes = 0;
    for (const hsc::SchedCellResult& cell : grid_.cells) {
      const hsc::SchedStats& s = cell.stats;
      jobs += static_cast<double>(s.submitted);
      backfill += static_cast<double>(s.backfill_starts);
      requeues += static_cast<double>(s.requeues);
      crashes += static_cast<double>(s.crashes);
      deploys += static_cast<double>(s.deploy.deploys);
      coalesced += static_cast<double>(s.deploy.coalesced);
      fetches += static_cast<double>(s.deploy.upstream_fetches);
      transfers =
          std::max(transfers, static_cast<double>(s.deploy.max_active_transfers));
    }
    values["sched.jobs"] = jobs;
    values["sched.backfill_starts"] = backfill;
    values["sched.requeues"] = requeues;
    values["sched.deploys"] = deploys;
    values["sched.coalesced"] = coalesced;
    values["sched.upstream_fetches"] = fetches;
    values["sched.max_active_transfers"] = transfers;
    values["fault.crashes"] = crashes;
    const double n = span_total(spans, "sched.split/backfill-n").seconds;
    const double two_n = span_total(spans, "sched.split/backfill-2n").seconds;
    values["sched.backfill_n_s"] = n;
    values["sched.backfill_2n_s"] = two_n;
    values["sched.doubling_ratio"] = n > 0 ? two_n / n : 0.0;
  }

  std::vector<std::string> notes() const override {
    return {"sched.doubling_ratio: one backfill cell at " +
            std::to_string(2 * kJobs) + " jobs / at " +
            std::to_string(kJobs) + " (about 2 if linear, about 4 if "
            "quadratic)"};
  }

 private:
  /// One scheduler cell (container-heavy mix, load 2) built from the
  /// layer objects run_sched_cell composes, with a span around every call
  /// into them.
  hsc::SchedStats split_cell(Tracer& tracer, const std::string& policy,
                             int jobs, std::uint64_t seed) const {
    hsc::SchedWorkloadSpec workload = spec_.workload;
    workload.mix = "container-heavy";
    workload.load = 2.0;
    workload.jobs = jobs;
    hsc::SchedConfig config = spec_.config;
    config.policy = hsc::SchedPolicy::preset(policy);
    config.gateway_enabled = spec_.gateway_enabled;

    const hpcs::sim::Rng root{seed};
    const hpcs::gateway::ImageCatalog catalog =
        timed(tracer, "sched.catalog", [&] {
          return hpcs::gateway::ImageCatalog(workload.catalog_spec(), root);
        });
    std::vector<hsc::JobSpec> specs = timed(
        tracer, "sched.jobgen", [&] { return hsc::generate_jobs(workload, root); });
    hf::FaultInjector faults = timed(tracer, "fault.draw/fault_injector", [&] {
      return hf::FaultInjector(hf::FaultSpec::preset(spec_.faults), seed);
    });
    const hf::HazardInjector hazard_injector =
        timed(tracer, "fault.draw/hazard_injector", [&] {
          return hf::HazardInjector(hf::HazardSpec::preset(spec_.hazards),
                                    seed);
        });
    hf::HazardSchedule hazards =
        timed(tracer, "fault.draw/hazard_schedule", [&] {
          return hazard_injector.schedule(run_horizon(specs, config),
                                          config.nodes);
        });
    hsc::BatchScheduler scheduler = timed(tracer, "sched.scheduler_init", [&] {
      return hsc::BatchScheduler(config, std::move(specs), catalog,
                                 std::move(faults), std::move(hazards),
                                 nullptr);
    });
    return timed(tracer, "sched.run", [&] { return scheduler.run(); }).stats;
  }

  void fold(Tracer* tracer) {
    const Tracer::Scope scope(tracer, "core.fold/write_csv");
    std::ostringstream csv;
    grid_.write_csv(csv);
    csv_ = csv.str();
  }

  std::uint64_t seed_;
  int workers_;
  hsc::SchedGridSpec spec_;
  hsc::SchedGridResult grid_;
  std::string csv_;
};

}  // namespace

std::string sched_conservation_error(const hsc::SchedStats& s) {
  if (s.submitted == s.completed + s.failed + s.shed) return {};
  return "conservation: submitted " + std::to_string(s.submitted) +
         " != completed + failed + shed " +
         std::to_string(s.completed + s.failed + s.shed);
}

std::unique_ptr<Workload> make_sched_backfill(std::uint64_t seed,
                                              int workers) {
  return std::make_unique<SchedBackfill>(seed, workers);
}

}  // namespace perfbench
