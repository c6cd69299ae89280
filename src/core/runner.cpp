#include "core/runner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

#include "container/io_model.hpp"
#include "container/transport.hpp"
#include "fault/schedule.hpp"
#include "mpi/collectives.hpp"
#include "mpi/cost_model.hpp"
#include "sim/csv.hpp"
#include "sim/rng.hpp"

namespace hpcs::study {

void RunnerOptions::validate() const {
  compute.validate();
  if (noise_sigma < 0 || noise_sigma > 0.5)
    throw std::invalid_argument("RunnerOptions: noise_sigma outside [0,0.5]");
  faults.validate();
  retry.validate();
  checkpoint.validate();
  hazards.validate();
  if (timeseries_window_s < 0 || !std::isfinite(timeseries_window_s))
    throw std::invalid_argument(
        "RunnerOptions: timeseries_window_s must be >= 0");
}

double bsp_step_jitter(const sim::Rng& rng, int ranks, int step,
                       double sigma) {
  if (ranks <= 0) return 0.0;
  double max_z = -std::numeric_limits<double>::infinity();
  // Smallest u1 whose Box-Muller radius cannot exceed max_z; 2.0 (no u1
  // reaches it) until max_z > 0.
  double skip_at = 2.0;
  for (int r = 0; r < ranks; ++r) {
    const std::uint64_t stream =
        static_cast<std::uint64_t>(r) * std::uint64_t{1000003} +
        static_cast<std::uint64_t>(step);
    sim::Rng rrng = rng.child(stream);
    // The draws of sim::Rng::normal(), with the radius test first.  A u1
    // above 1e-300 is the one normal() keeps; testing before the rejection
    // loop leaves every use of the rest of the stream on the rare path,
    // so the compiler does the rest of the seeding there too.
    double u1 = rrng.uniform();
    if (u1 >= skip_at && u1 > 1e-300) continue;
    while (u1 <= 1e-300) u1 = rrng.uniform();
    const double u2 = rrng.uniform();
    const double z = std::sqrt(-2.0 * std::log(u1)) *
                     std::cos(2.0 * std::numbers::pi * u2);
    if (z > max_z) {
      max_z = z;
      if (max_z > 0.0)
        skip_at = std::exp(-0.5 * max_z * max_z) * (1.0 + 1e-9);
    }
  }
  // lognormal_median(1.0, sigma) is 1.0 * exp(sigma * z); 1.0 * x == x.
  return std::exp(sigma * max_z);
}

ExperimentRunner::ExperimentRunner(RunnerOptions options)
    : options_(options) {
  options_.validate();
}

RunResult ExperimentRunner::run(const Scenario& scenario) const {
  if (scenario.app == AppCase::ArteryFsi)
    return run(scenario, alya::WorkloadModel::default_fsi(),
               artery_fsi_mesh());
  return run(scenario, alya::WorkloadModel::default_cfd(),
             artery_cfd_mesh());
}

RunResult ExperimentRunner::run(const Scenario& scenario,
                                const alya::WorkloadModel& model,
                                const MeshSpec& mesh) const {
  scenario.validate();
  mesh.validate();

  const auto runtime = container::ContainerRuntime::make(scenario.runtime);
  const container::Image* image =
      scenario.image ? &*scenario.image : nullptr;
  const auto paths =
      container::resolve_comm_paths(*runtime, image, scenario.cluster);

  const mpi::JobMapping mapping(scenario.cluster, scenario.nodes,
                                scenario.ranks, scenario.threads);
  const mpi::CostModel cost(paths, mapping);
  // Docker's UTS/Net namespaces hide co-location from the MPI library, so
  // it falls back to placement-oblivious (flat) collectives.
  const bool topology_aware =
      !runtime->namespaces().contains(container::Namespace::Uts);
  const mpi::Collectives coll(cost, topology_aware);

  const auto work = model.per_rank(mesh.elements, mesh.nodes, scenario.ranks);
  const double rt_factor = runtime->compute_overhead_factor();
  const int rpn = mapping.ranks_per_node();

  // --- fault model: straggler & link-degradation draws ----------------------
  // Bulk-synchronous execution runs at the pace of the slowest node, so a
  // straggler's slowdown applies to every step's compute; a degraded link
  // multiplies every communication time.  Disabled faults draw nothing.
  double straggler_mult = 1.0;
  double link_mult = 1.0;
  if (options_.faults.enabled) {
    const fault::FaultInjector finj(options_.faults, scenario.seed);
    for (int nd = 0; nd < scenario.nodes; ++nd)
      straggler_mult =
          std::max(straggler_mult, finj.straggler_multiplier(nd));
    link_mult = finj.link_multiplier();
  }

  // --- per-rank kernel times (identical across ranks modulo jitter) -------
  const double t_assembly =
      hw::kernel_time(scenario.cluster.node, work.assembly, scenario.threads,
                      rpn, options_.compute) *
      rt_factor * straggler_mult;
  const double t_iteration =
      hw::kernel_time(scenario.cluster.node, work.per_iteration,
                      scenario.threads, rpn, options_.compute) *
      rt_factor * straggler_mult;

  // --- halo exchange time ---------------------------------------------------
  double t_halo = 0.0;
  if (work.halo_neighbors > 0) {
    const double off_frac =
        scenario.nodes == 1
            ? 0.0
            : std::min(1.0, std::pow(static_cast<double>(rpn), -1.0 / 3.0));
    const double off_neighbors =
        static_cast<double>(work.halo_neighbors) * off_frac;
    const double intra_neighbors =
        static_cast<double>(work.halo_neighbors) - off_neighbors;
    double t_inter = 0.0, t_intra = 0.0;
    if (off_neighbors > 0.0) {
      const int flows = std::max(
          1, static_cast<int>(std::lround(off_neighbors *
                                          static_cast<double>(rpn))));
      t_inter = cost.internode_time(work.halo_bytes_per_neighbor, flows);
    }
    if (intra_neighbors > 0.0)
      t_intra = cost.intranode_time(work.halo_bytes_per_neighbor);
    t_halo = std::max(t_inter, t_intra);
  }
  t_halo *= link_mult;

  // --- reductions & FSI interface -------------------------------------------
  const double t_allreduce = coll.allreduce(work.reduction_bytes) * link_mult;
  const double t_interface =
      work.coupling_iterations > 1.0 && work.interface_bytes > 0
          ? 2.0 * cost.internode_time(work.interface_bytes, 1) * link_mult
          : 0.0;

  // --- assemble per-step time with per-rank noise ---------------------------
  sim::Rng rng(scenario.seed ^ sim::hash64(scenario.label()));
  RunResult result;
  result.label = scenario.label();
  result.ranks = scenario.ranks;
  result.threads = scenario.threads;
  result.nodes = scenario.nodes;
  result.step_times.reserve(static_cast<std::size_t>(scenario.time_steps));

  // Observability: one collector per run, feeding a private in-memory
  // sink.  Every recorded time is simulated, so the trace is a pure
  // function of the scenario and seed.
  const auto obs_sink = options_.observe
                            ? std::make_shared<obs::MemorySink>()
                            : std::shared_ptr<obs::MemorySink>{};
  obs::Collector col(obs_sink);
  if (options_.timeseries_window_s > 0)
    col.enable_timeseries(options_.timeseries_window_s);
  obs::SpanScope run_scope(col, 0, "run", "runner", 0.0);

  // --- deployment (before execution: the job's containers must be up) ------
  container::DeploymentSimulator dep(scenario.cluster, scenario.seed);
  if (options_.faults.enabled)
    dep.set_faults(options_.faults, options_.retry);
  // Correlated hazards share the run's timebase: the schedule is drawn
  // once over a fixed generous horizon (independent of run length, so
  // changing time_steps never perturbs the draws) and threaded into both
  // the deployment DES and the resilience replay below.
  fault::HazardSchedule hazard_schedule;
  if (options_.hazards.enabled) {
    const fault::HazardInjector hz(options_.hazards, scenario.seed);
    hazard_schedule = hz.schedule(86400.0, scenario.nodes);
    dep.set_hazards(hazard_schedule);
  }
  dep.set_collector(&col);
  {
    obs::SpanScope deploy_scope(col, 0, "deploy", "deployment", 0.0);
    if (scenario.runtime == container::RuntimeKind::BareMetal) {
      result.deployment = dep.deploy_bare_metal(scenario.nodes, rpn);
    } else {
      result.deployment =
          dep.deploy(*runtime, *scenario.image, scenario.nodes, rpn);
    }
    deploy_scope.close(result.deployment.total_time);
  }
  // Execution spans start where deployment ended, putting the whole run on
  // one timebase.
  const double dep_offset = result.deployment.total_time;

  obs::SpanScope exec_scope(col, 0, "execute", "runner", dep_offset);

  const double iters = static_cast<double>(work.solver_iterations);
  const double halo_per_iter =
      static_cast<double>(work.halo_exchanges_per_iteration) * t_halo;
  const double red_per_iter =
      static_cast<double>(work.reductions_per_iteration) * t_allreduce;

  // Start of the current step on the run's timebase, carried forward in
  // the order the steps are added, so each start is the same sum as
  // dep_offset + every earlier step.
  double step_clock = dep_offset;
  for (int s = 0; s < scenario.time_steps; ++s) {
    // Bulk-synchronous: the step advances at the pace of the slowest rank.
    const double max_jitter =
        bsp_step_jitter(rng, scenario.ranks, s, options_.noise_sigma);
    const double compute =
        (t_assembly + iters * t_iteration) * max_jitter;
    const double halo =
        static_cast<double>(work.extra_halo_exchanges) * t_halo +
        iters * halo_per_iter;
    const double reductions = iters * red_per_iter;
    const double step = work.coupling_iterations *
                        (compute + halo + reductions + t_interface);
    if (col.enabled()) {
      // Phase order within a step: compute, halo, reductions, interface;
      // steps are laid out back-to-back after the deployment offset.
      double t0 = step_clock;
      const double step_start = t0;
      const double cpl = work.coupling_iterations;
      obs::SpanScope step_scope(col, 0, "step", "runner", t0);
      col.span(0, "compute", "phase", t0, compute * cpl);
      t0 += compute * cpl;
      col.span(0, "halo", "phase", t0, halo * cpl);
      t0 += halo * cpl;
      col.span(0, "reduction", "phase", t0, reductions * cpl);
      t0 += reductions * cpl;
      if (t_interface > 0.0) {
        col.span(0, "interface", "phase", t0, t_interface * cpl);
        t0 += t_interface * cpl;
      }
      step_scope.close(t0);
      col.count("runner/steps");
      col.observe("runner/step_time_s", step);
      // Windowed telemetry: a step lands in the window its start time
      // falls in, so solver slowdowns localize to the windows they cover.
      col.ts_count("runner/steps", step_start);
      col.ts_observe("runner/step_time_s", step_start, step);
      col.ts_gauge("runner/comm_fraction_window", step_start,
                   step > 0 ? (halo + reductions + t_interface) * cpl / step
                            : 0.0);
      col.observe("runner/phase/compute_s", compute * cpl);
      col.observe("runner/phase/halo_s", halo * cpl);
      col.observe("runner/phase/reduction_s", reductions * cpl);
      if (t_interface > 0.0)
        col.observe("runner/phase/interface_s", t_interface * cpl);
    }
    result.step_times.add(step);
    step_clock += step;
    result.compute_time += work.coupling_iterations * compute;
    result.halo_time += work.coupling_iterations * halo;
    result.reduction_time += work.coupling_iterations * reductions;
    result.interface_time += work.coupling_iterations * t_interface;
  }

  const double n_steps = static_cast<double>(scenario.time_steps);
  result.compute_time /= n_steps;
  result.halo_time /= n_steps;
  result.reduction_time /= n_steps;
  result.interface_time /= n_steps;
  result.total_time = result.step_times.mean() * n_steps;
  result.avg_step_time = result.step_times.mean();
  const double comm =
      result.halo_time + result.reduction_time + result.interface_time;
  result.comm_fraction =
      result.avg_step_time > 0 ? comm / result.avg_step_time : 0.0;

  // --- energy to solution -----------------------------------------------------
  const double comm_per_step =
      result.halo_time + result.reduction_time + result.interface_time;
  result.energy_j = scenario.cluster.power.job_energy(
      scenario.nodes, result.compute_time * n_steps,
      comm_per_step * n_steps);
  if (result.total_time > 0)
    result.avg_node_power_w =
        result.energy_j /
        (result.total_time * static_cast<double>(scenario.nodes));

  exec_scope.close(dep_offset + result.total_time);

  // --- resilience: checkpoint/restart replay under node crashes -------------
  result.resilience.straggler_multiplier = straggler_mult;
  result.resilience.link_multiplier = link_mult;
  result.resilience.ideal_time_s = result.total_time;
  result.resilience.effective_time_s = result.total_time;
  if (options_.faults.enabled || !hazard_schedule.bursts.empty()) {
    result.resilience.pull_retries = result.deployment.pull_retries;
    result.resilience.retry_backoff_s = result.deployment.retry_backoff_time;

    const fault::FaultInjector finj(options_.faults, scenario.seed);
    double ckpt_cost = 0.0;
    if (options_.checkpoint.interval_s > 0.0) {
      const container::IoSimulator io(container::PfsModel{}, scenario.cluster);
      ckpt_cost = io.checkpoint_write(scenario.runtime, scenario.nodes, rpn,
                                      options_.checkpoint.bytes_per_rank)
                      .time;
    }
    // A crash costs the scheduler requeue plus the runtime-specific cost of
    // re-provisioning the replacement node (Docker re-pulls cold; the
    // shared-FS runtimes only page metadata back in; bare metal re-execs).
    const double recovery =
        options_.checkpoint.reschedule_delay_s +
        dep.recovery_time(*runtime, image, rpn);
    // Injected events become instant markers on the job track.  The
    // replay's wall clock stretches past the ideal execution window, so
    // the markers extend the trace beyond the last step — by design.
    fault::ReplayEventFn on_event;
    if (col.enabled())
      on_event = [&col, dep_offset](const char* kind, double wall_time_s,
                                    double detail_s) {
        col.instant(0, kind, "fault", dep_offset + wall_time_s,
                    {{"detail_s", sim::CsvWriter::cell(detail_s)}});
      };
    // Crash sequence: the independent Poisson process merged with any
    // rack-burst times from the hazard schedule.  A burst fans a whole
    // rack out at once; under the bulk-synchronous replay the first
    // crash triggers the rollback and its simultaneous siblings are
    // masked by the recovery window — which is exactly what makes N
    // correlated crashes cheaper than N spread-out ones.
    struct MergedCrashes {
      fault::CrashProcess process;
      std::vector<double> bursts;  ///< relative to execution start, sorted
      std::size_t next_burst = 0;
      double pending = -1.0;  ///< undrawn Poisson event when < 0
      std::vector<double> times;

      double at(int i) {
        while (static_cast<int>(times.size()) <= i) {
          if (process.active() && pending < 0.0)
            pending = process.next().time;
          if (next_burst < bursts.size() &&
              (!process.active() || bursts[next_burst] <= pending)) {
            times.push_back(bursts[next_burst++]);
          } else if (process.active()) {
            times.push_back(pending);
            pending = -1.0;
          } else {
            times.push_back(std::numeric_limits<double>::infinity());
          }
        }
        return times[static_cast<std::size_t>(i)];
      }
    };
    auto crashes = std::make_shared<MergedCrashes>(
        MergedCrashes{finj.crash_process(scenario.nodes), {}, 0, -1.0, {}});
    for (const fault::RackBurst& b : hazard_schedule.bursts)
      if (b.time >= dep_offset)
        crashes->bursts.push_back(b.time - dep_offset);
    // Checkpoint writes go to the shared filesystem, so a brownout window
    // covering one stretches it (identity without windows).
    const fault::CheckpointCostFn ckpt_cost_fn =
        [&hazard_schedule, dep_offset, ckpt_cost](double wall_s) {
          return hazard_schedule.stretched(dep_offset + wall_s, ckpt_cost);
        };
    const fault::ResilienceReport rep = fault::replay_with_recovery(
        result.total_time, options_.checkpoint, ckpt_cost_fn, recovery,
        [crashes](int i) { return crashes->at(i); },
        options_.faults.max_crashes, on_event);
    result.resilience.crashes = rep.crashes;
    result.resilience.restarts = rep.restarts;
    result.resilience.checkpoints = rep.checkpoints;
    result.resilience.downtime_s = rep.downtime_s;
    result.resilience.lost_work_s = rep.lost_work_s;
    result.resilience.checkpoint_overhead_s = rep.checkpoint_overhead_s;
    result.resilience.effective_time_s = rep.effective_time_s;
  }

  if (col.enabled()) {
    // Run-level metrics.  Gauges merge by max across campaign cells, so
    // only record values where "worst cell" is the meaningful aggregate.
    col.gauge("runner/total_time_s", result.total_time);
    col.gauge("runner/avg_step_time_s", result.avg_step_time);
    col.gauge("runner/comm_fraction", result.comm_fraction);
    col.gauge("runner/energy_j", result.energy_j);
    col.gauge("runner/avg_node_power_w", result.avg_node_power_w);
    col.gauge("deploy/total_s", result.deployment.total_time);
    col.count("deploy/bytes_transferred",
              static_cast<double>(result.deployment.bytes_transferred));
    col.count("deploy/pull_retries",
              static_cast<double>(result.deployment.pull_retries));
    for (double t : result.deployment.node_ready_times.values()) {
      col.observe("deploy/node_ready_s", t);
      // Node readiness arrives at its own simulated time, so staging
      // waves show up window by window.
      col.ts_observe("deploy/node_ready_s", t, t);
      col.ts_count("deploy/nodes_ready", t);
    }
    if (options_.faults.enabled) {
      col.count("fault/crashes",
                static_cast<double>(result.resilience.crashes));
      col.count("fault/checkpoints",
                static_cast<double>(result.resilience.checkpoints));
      col.gauge("fault/straggler_multiplier", straggler_mult);
      col.gauge("fault/link_multiplier", link_mult);
      col.gauge("fault/downtime_s", result.resilience.downtime_s);
    }
    if (options_.hazards.enabled) {
      col.count("hazard/rack_bursts",
                static_cast<double>(hazard_schedule.bursts.size()));
      col.count("hazard/brownout_windows",
                static_cast<double>(hazard_schedule.brownouts.size()));
      col.count("hazard/gray_windows",
                static_cast<double>(hazard_schedule.grays.size()));
      col.count("hazard/partition_windows",
                static_cast<double>(hazard_schedule.partitions.size()));
      col.gauge("hazard/brownout_delay_s",
                result.deployment.brownout_delay_time);
      // Window spans live on their own track past the node tracks so
      // they never become spurious parents in the span forest.
      const int track = 1 + scenario.nodes;
      for (const fault::HazardWindow& w : hazard_schedule.brownouts)
        col.span(track, "fs-brownout", "fault", w.start, w.end - w.start);
      for (const fault::HazardWindow& w : hazard_schedule.grays)
        col.span(track, "gray-failure", "fault", w.start, w.end - w.start);
      for (const fault::HazardWindow& w : hazard_schedule.partitions)
        col.span(track, "net-partition", "fault", w.start, w.end - w.start);
      for (const fault::RackBurst& b : hazard_schedule.bursts)
        col.instant(track, "rack-burst", "fault", b.time,
                    {{"nodes", std::to_string(b.node_count)}});
    }

    run_scope.close(col.cursor(0));
    result.trace = obs_sink->take();
    result.metrics = col.metrics();
    if (col.timeseries_enabled()) result.timeseries = col.timeseries();
  }
  return result;
}

}  // namespace hpcs::study
