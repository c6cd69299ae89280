// paper-campaign: the fig1/fig2/fig3 sweeps through CampaignRunner::run
// with a {none, moderate} fault axis (checkpointing on), observed, and
// their CSV, Chrome trace and metrics JSON serialized to memory.

#include <set>
#include <sstream>
#include <stdexcept>

#include "container/deployment.hpp"
#include "container/runtime.hpp"
#include "core/campaign.hpp"
#include "core/thread_pool.hpp"
#include "fault/spec.hpp"
#include "hw/presets.hpp"
#include "mpi/mapping.hpp"
#include "sim/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace hs = hpcs::study;
namespace hc = hpcs::container;
namespace hf = hpcs::fault;

constexpr int kSteps = 50;

/// The campaign convention for a cell's seed (`CampaignSpec::expand`),
/// needed to replay a fault retry the way `CampaignRunner` does.
std::uint64_t campaign_cell_seed(std::uint64_t base, const std::string& key) {
  std::uint64_t state = base ^ hpcs::sim::hash64(key);
  return hpcs::sim::splitmix64(state);
}

/// The three figure sweeps of the paper benches, each with a fault axis, at
/// 50 time steps per cell so a pass outlasts the host's sub-second speed
/// swings (the benches use 5-10).
std::vector<hs::CampaignSpec> paper_specs(std::uint64_t seed) {
  std::vector<hs::CampaignSpec> specs(3);
  hs::CampaignSpec& fig1 = specs[0];
  fig1.name = "fig1-lenox-runtimes";
  fig1.cluster(hpcs::hw::presets::lenox())
      .variant(hc::RuntimeKind::BareMetal, hc::BuildMode::SystemSpecific,
               "Bare-metal")
      .variant(hc::RuntimeKind::Singularity, hc::BuildMode::SystemSpecific,
               "Singularity")
      .variant(hc::RuntimeKind::Shifter, hc::BuildMode::SystemSpecific,
               "Shifter")
      .variant(hc::RuntimeKind::Docker, hc::BuildMode::SystemSpecific,
               "Docker")
      .nodes({4})
      .geometry(8, 14)
      .geometry(16, 7)
      .geometry(28, 4)
      .geometry(56, 2)
      .geometry(112, 1)
      .steps(kSteps);

  hs::CampaignSpec& fig2 = specs[1];
  fig2.name = "fig2-ctepower-portability";
  fig2.cluster(hpcs::hw::presets::cte_power())
      .variant(hc::RuntimeKind::BareMetal, hc::BuildMode::SystemSpecific,
               "Bare-metal")
      .variant(hc::RuntimeKind::Singularity, hc::BuildMode::SystemSpecific,
               "Singularity system-specific")
      .variant(hc::RuntimeKind::Singularity, hc::BuildMode::SelfContained,
               "Singularity self-contained")
      .nodes({2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
      .steps(kSteps);

  hs::CampaignSpec& fig3 = specs[2];
  fig3.name = "fig3-mn4-fsi-scalability";
  fig3.cluster(hpcs::hw::presets::marenostrum4())
      .variant(hc::RuntimeKind::BareMetal, hc::BuildMode::SystemSpecific,
               "Bare-metal")
      .variant(hc::RuntimeKind::Singularity, hc::BuildMode::SystemSpecific,
               "Singularity system-specific")
      .variant(hc::RuntimeKind::Singularity, hc::BuildMode::SelfContained,
               "Singularity self-contained")
      .app(hs::AppCase::ArteryFsi)
      .nodes({4, 8, 16, 32, 64, 128, 256})
      .steps(kSteps);

  for (hs::CampaignSpec& spec : specs)
    spec.fault(hf::FaultSpec::preset("none"))
        .fault(hf::FaultSpec::preset("moderate"))
        .seed(seed);
  return specs;
}

hs::RunnerOptions observed_options() {
  hs::RunnerOptions options;
  options.observe = true;
  return options;
}

class PaperCampaign final : public Workload {
 public:
  PaperCampaign(std::uint64_t seed, int workers)
      : seed_(seed), workers_(workers) {}

  void setup(Tracer* tracer) override {
    const Tracer::Scope scope(tracer, "core.spec");
    specs_ = paper_specs(seed_);
    for (const hs::CampaignSpec& spec : specs_) spec.validate();
  }

  void run() override {
    results_.clear();
    const hs::CampaignRunner runner(hs::CampaignOptions{
        .jobs = workers_, .runner = observed_options()});
    for (const hs::CampaignSpec& spec : specs_)
      results_.push_back(runner.run(spec));
    fold(nullptr);
  }

  void run_traced(Tracer& tracer) override {
    results_.clear();
    for (const hs::CampaignSpec& spec : specs_) {
      std::vector<hs::CampaignCell> cells;
      {
        const Tracer::Scope scope(&tracer, "core.expand");
        cells = spec.expand();
      }
      hs::ImageBuildCache cache;
      {
        const Tracer::Scope pool_scope(&tracer, "core.pool");
        hs::TaskPool pool(workers_);
        for (hs::CampaignCell& cell : cells)
          pool.submit([&, parent = pool_scope.id()] {
            const Tracer::Scope scope(&tracer, "core.cell", parent);
            run_cell(spec, cell, cache, tracer);
          });
        pool.wait_idle();
      }
      hs::CampaignResult res;
      res.name = spec.name;
      res.jobs = workers_;
      res.axes = {spec.clusters.size(), spec.variants.size(),
                  std::max<std::size_t>(1, spec.apps.size()),
                  std::max<std::size_t>(1, spec.node_counts.size()),
                  std::max<std::size_t>(1, spec.geometries.size()),
                  std::max<std::size_t>(1, spec.faults.size()),
                  static_cast<std::size_t>(spec.repetitions)};
      for (const hs::CampaignCell& cell : cells)
        (cell.ok ? res.succeeded : res.failed)++;
      res.image_cache_hits = cache.hits();
      res.image_cache_misses = cache.misses();
      res.cells = std::move(cells);
      results_.push_back(std::move(res));
    }
    fold(&tracer);
  }

  void check(Gate& gate) override {
    for (std::size_t s = 0; s < results_.size(); ++s) {
      const hs::CampaignResult& res = results_[s];
      std::istringstream csv(csv_[s]);
      std::string row;
      std::getline(csv, row);  // header
      for (const hs::CampaignCell& cell : res.cells) {
        if (!std::getline(csv, row)) {
          gate.fail(cell.key, "CSV has no row for this cell");
          continue;
        }
        gate.check(cell.key, digest(row),
                   cell.ok ? std::string{} : "cell failed: " + cell.error);
      }
    }
  }

  void split(Tracer& tracer, Gate& gate) override {
    deploy_points(tracer, gate);
    emission(tracer);
  }

  void layer_values(const std::vector<Span>& spans,
                    Values& values) const override {
    pool_values(spans, "core.pool", {"core.cell"}, workers_, values);
    double builds = 0, hits = 0, cells = 0, events = 0, crashes = 0;
    for (const hs::CampaignResult& res : results_) {
      builds += static_cast<double>(res.image_cache_misses);
      hits += static_cast<double>(res.image_cache_hits);
      cells += static_cast<double>(res.cells.size());
      for (const hs::CampaignCell& cell : res.cells) {
        events += static_cast<double>(cell.result.trace.size());
        crashes += cell.result.resilience.crashes;
      }
    }
    values["core.image_builds"] = builds;
    values["core.image_cache_hits"] = hits;
    values["core.cells"] = cells;
    values["obs.events"] = events;
    values["obs.trace_bytes"] = static_cast<double>(trace_bytes_);
    values["fault.crashes"] = crashes;
    const double observed = span_total(spans, "obs.split/observed").seconds;
    const double unobserved =
        span_total(spans, "obs.split/unobserved").seconds;
    values["obs.observed_runner_s"] = observed;
    values["obs.unobserved_runner_s"] = unobserved;
    values["obs.emit_s"] = observed - unobserved;
  }

 private:
  /// DeploymentSimulator::deploy over the distinct deploy points of the
  /// campaign: (cluster, runtime variant, nodes, ranks per node).
  void deploy_points(Tracer& tracer, Gate& gate) const {
    hs::ImageBuildCache cache;
    std::set<std::string> seen;
    for (const hs::CampaignSpec& spec : specs_) {
      for (const hs::CampaignCell& cell : spec.expand()) {
        const hs::Scenario& sc = cell.scenario;
        if (sc.runtime == hc::RuntimeKind::BareMetal) continue;
        const int rpn =
            hpcs::mpi::JobMapping(sc.cluster, sc.nodes, sc.ranks, sc.threads)
                .ranks_per_node();
        const std::string key = "deploy/" + sc.cluster.name + "/" +
                                cell.variant.name() + "/n" +
                                std::to_string(sc.nodes) + "/rpn" +
                                std::to_string(rpn);
        if (!seen.insert(key).second) continue;
        try {
          const hc::Image image = cache.get(sc.cluster, cell.variant);
          const auto runtime = hc::ContainerRuntime::make(sc.runtime);
          hc::DeploymentSimulator sim(sc.cluster, derived_seed(seed_, key));
          hc::DeploymentResult result;
          {
            const Tracer::Scope scope(&tracer, "container.deploy");
            result = sim.deploy(*runtime, image, sc.nodes, rpn);
          }
          gate.check_invariant(key, result.total_time > 0.0
                                        ? std::string{}
                                        : "deploy took no time");
        } catch (const std::exception& e) {
          gate.fail(key, e.what());
        }
      }
    }
  }

  /// The cost of observing: every campaign cell run unobserved and then
  /// observed, one after the other on this thread.  A cell whose fault
  /// draw aborts the run aborts both runs at the same point.
  void emission(Tracer& tracer) const {
    hs::ImageBuildCache cache;
    for (const hs::CampaignSpec& spec : specs_) {
      for (hs::CampaignCell& cell : spec.expand()) {
        hs::RunnerOptions observed = observed_options();
        observed.faults = cell.fault_spec;
        hs::RunnerOptions unobserved = observed;
        unobserved.observe = false;
        if (cell.scenario.runtime != hc::RuntimeKind::BareMetal)
          cell.scenario.image = cache.get(cell.scenario.cluster, cell.variant);
        try {
          timed(tracer, "obs.split/unobserved", [&] {
            return hs::ExperimentRunner(unobserved).run(cell.scenario);
          });
        } catch (const std::exception&) {
        }
        try {
          timed(tracer, "obs.split/observed", [&] {
            return hs::ExperimentRunner(observed).run(cell.scenario);
          });
        } catch (const std::exception&) {
        }
      }
    }
  }

  /// One campaign cell through the public per-cell entries, the way
  /// CampaignRunner executes it.
  void run_cell(const hs::CampaignSpec& spec, hs::CampaignCell& cell,
                hs::ImageBuildCache& cache, Tracer& tracer) const {
    hs::RunnerOptions options = observed_options();
    options.faults = cell.fault_spec;
    const int retries = hs::CampaignOptions{}.cell_retries;
    for (int attempt = 0;; ++attempt) {
      cell.attempts = attempt + 1;
      try {
        if (cell.scenario.runtime != hc::RuntimeKind::BareMetal) {
          const Tracer::Scope scope(&tracer, "core.image_get");
          cell.scenario.image = cache.get(cell.scenario.cluster, cell.variant);
        }
        hs::Scenario scenario = cell.scenario;
        if (attempt > 0)
          scenario.seed = campaign_cell_seed(
              spec.base_seed, cell.key + "#retry" + std::to_string(attempt));
        cell.result = timed(tracer, "core.runner", [&] {
          return hs::ExperimentRunner(options).run(scenario);
        });
        cell.ok = true;
        cell.failure = hs::FailureKind::None;
        cell.error.clear();
        return;
      } catch (const std::exception& e) {
        cell.ok = false;
        cell.error = e.what();
        cell.failure = hs::classify_failure(e);
        if (cell.failure != hs::FailureKind::Fault || attempt >= retries)
          return;
      }
    }
  }

  /// Serializes every result to memory: the figure CSV and JSON summary,
  /// the aggregate metrics, the Chrome trace and the metrics JSON.
  void fold(Tracer* tracer) {
    csv_.clear();
    trace_bytes_ = 0;
    for (const hs::CampaignResult& res : results_) {
      std::ostringstream csv, json, trace, metrics_json;
      {
        const Tracer::Scope scope(tracer, "core.fold/write_csv");
        res.write_csv(csv);
      }
      {
        const Tracer::Scope scope(tracer, "core.fold/write_json");
        res.write_json(json);
      }
      hpcs::obs::Metrics metrics;
      {
        const Tracer::Scope scope(tracer, "core.fold/aggregate_metrics");
        metrics = res.aggregate_metrics();
      }
      {
        const Tracer::Scope scope(tracer, "obs.export/chrome_trace");
        res.write_chrome_trace(trace);
      }
      {
        const Tracer::Scope scope(tracer, "obs.export/metrics_json");
        metrics.write_json(metrics_json);
      }
      csv_.push_back(csv.str());
      trace_bytes_ += static_cast<std::size_t>(trace.tellp());
    }
  }

  std::uint64_t seed_;
  int workers_;
  std::vector<hs::CampaignSpec> specs_;
  std::vector<hs::CampaignResult> results_;
  std::vector<std::string> csv_;
  std::size_t trace_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_paper_campaign(std::uint64_t seed,
                                              int workers) {
  return std::make_unique<PaperCampaign>(seed, workers);
}

}  // namespace perfbench
