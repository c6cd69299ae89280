#pragma once

/// \file runner.hpp
/// \brief The experiment engine: deploys a scenario and replays the Alya
///        workload on the simulated cluster, producing the elapsed times
///        the paper's figures plot.
///
/// The execution model per time step is bulk-synchronous, matching the
/// solver's structure:
///
///   coupling iterations x [ operator assembly (compute)
///                           + velocity halo swaps
///                           + solver iterations x ( SpMV compute
///                                                   + halo exchange
///                                                   + reductions )
///                           + FSI interface exchange ]
///
/// Compute times come from the roofline model with per-rank multiplicative
/// OS-noise jitter (the step time is the max over ranks — noise amplifies
/// with scale, as on real machines); communication times come from the
/// fabric paths the (runtime, image) combination resolved to.

#include "alya/workload.hpp"
#include "container/deployment.hpp"
#include "core/scenario.hpp"
#include "fault/hazard.hpp"
#include "fault/resilience.hpp"
#include "fault/spec.hpp"
#include "hw/compute.hpp"
#include "obs/collector.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace hpcs::study {

struct RunnerOptions {
  hw::ComputeParams compute{};
  /// Sigma of the per-rank lognormal noise on compute kernels.
  double noise_sigma = 0.008;
  /// Collect spans and metrics into RunResult::trace / ::metrics.  The
  /// trace covers deployment (tracks 1+n per node), the per-step phase
  /// breakdown, and injected fault events, all in simulated time on one
  /// timebase: deployment [0, D], execution [D, D + total].  Off (the
  /// default) costs nothing: no allocation, no lock, no RNG draw.
  bool observe = false;
  /// Fault model; disabled by default (and then provably inert: no code
  /// path draws from it, keeping fault-free results bit-identical).
  fault::FaultSpec faults{};
  /// Retry policy for transient deployment/registry errors.
  fault::RetryPolicy retry{};
  /// Checkpoint/restart policy applied when faults are enabled.
  fault::CheckpointPolicy checkpoint{};
  /// Correlated-hazard model layered on the independent fault axis:
  /// rack-burst crashes join the replay's crash sequence, shared-FS
  /// brownout windows stretch staging, mounts, and checkpoint writes.
  /// Disabled by default — and then provably inert: no draws, and every
  /// result stays byte-identical to a build without the hazard layer.
  fault::HazardSpec hazards{};
  /// Windowed-telemetry window width in simulated seconds; 0 (the
  /// default) leaves temporal telemetry off.  Only takes effect when the
  /// run is observed — telemetry never exists without a collector.
  double timeseries_window_s = 0.0;

  void validate() const;
};

struct RunResult {
  std::string label;
  int ranks = 0;
  int threads = 0;
  int nodes = 0;
  double total_time = 0.0;     ///< sum over time steps [s]
  double avg_step_time = 0.0;  ///< the paper's "average elapsed time"
  sim::Samples step_times;
  /// Per-step decomposition (averages).
  double compute_time = 0.0;
  double halo_time = 0.0;
  double reduction_time = 0.0;
  double interface_time = 0.0;
  double comm_fraction = 0.0;
  /// Energy to solution over the whole campaign [J] and the mean node
  /// power it implies [W] (Mont-Blanc-style energy accounting).
  double energy_j = 0.0;
  double avg_node_power_w = 0.0;
  container::DeploymentResult deployment;
  /// Downtime, lost work, retries, and effective-vs-ideal time under the
  /// configured fault model.  With faults disabled: all zero except
  /// ideal/effective, which both equal total_time.
  fault::ResilienceReport resilience;
  /// Full span/instant trace; empty unless RunnerOptions::observe.
  obs::TraceData trace;
  /// Metrics registry (counters/gauges/histograms); empty unless
  /// RunnerOptions::observe.
  obs::Metrics metrics;
  /// Windowed temporal telemetry; empty unless observed with
  /// RunnerOptions::timeseries_window_s > 0.
  obs::TimeSeries timeseries;
};

/// Straggler jitter of bulk-synchronous step \p step: the max over
/// \p ranks ranks of `lognormal_median(1.0, sigma)`, rank r drawing from
/// `rng.child(r * 1000003 + step)`.  Returns 0 when \p ranks is 0.
/// Requires sigma >= 0 (RunnerOptions::validate bounds it to [0, 0.5]).
///
/// Bit-equal to drawing every rank's lognormal and taking the max, but a
/// rank that cannot win costs only its child stream and one uniform draw:
///  - exp is monotone and sigma >= 0, so max_r exp(sigma z_r) =
///    exp(sigma max_r z_r); only the max z is exponentiated, once per step.
///  - Box-Muller gives z = sqrt(-2 ln u1) cos(2 pi u2) <= sqrt(-2 ln u1).
///    Once max z = m > 0, a rank whose first draw has
///    u1 >= exp(-m^2 / 2) (1 + 1e-9) has sqrt(-2 ln u1) < m, so its z
///    cannot exceed m; its log, sqrt, cos and second draw are skipped.
///    The 1e-9 margin dwarfs the few-ulp error of log, sqrt and exp, so a
///    skipped rank is never one whose computed z would be larger.
///  - Every rank has its own child stream, so a skip shifts no other
///    rank's draws.  Ranks that are not skipped compute z with exactly
///    the expression of sim::Rng::normal().
double bsp_step_jitter(const sim::Rng& rng, int ranks, int step,
                       double sigma);

class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunnerOptions options = {});

  /// Runs \p scenario with workload derived from \p model over \p mesh.
  /// \throws the transport/deployment errors for invalid combinations
  ///         (missing runtime, ISA mismatch, bad geometry).
  RunResult run(const Scenario& scenario, const alya::WorkloadModel& model,
                const MeshSpec& mesh) const;

  /// Convenience: picks the default workload model and mesh for the
  /// scenario's app case.
  RunResult run(const Scenario& scenario) const;

 private:
  RunnerOptions options_;
};

}  // namespace hpcs::study
