#pragma once

/// \file deployment.hpp
/// \brief Discrete-event simulation of the image deployment pipeline.
///
/// Deployment is everything between "job granted N nodes" and "every rank's
/// container is running".  The pipeline differs sharply per technology and
/// is one of the paper's three comparison axes (Section B.1):
///
///  * Docker      — the daemon starts on each node, then each node pulls
///                  every layer from the registry (contended), extracts it
///                  to local disk, and instantiates one container per rank
///                  serially through the daemon.
///  * Singularity — the flat SIF is staged *once* to the shared filesystem;
///                  each node then does a cheap SUID exec + mount per rank
///                  (in parallel).
///  * Shifter     — the central gateway converts the Docker image to
///                  squashfs once; nodes loop-mount it from the shared FS.
///  * bare-metal  — nothing to deploy.

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "container/image.hpp"
#include "container/runtime.hpp"
#include "fault/hazard.hpp"
#include "fault/resilience.hpp"
#include "fault/spec.hpp"
#include "hw/cluster.hpp"
#include "obs/collector.hpp"
#include "sim/stats.hpp"

namespace hpcs::container {

struct DeploymentResult {
  double total_time = 0.0;    ///< makespan: job grant -> all containers up
  double gateway_time = 0.0;  ///< central conversion/staging component
  double max_service_time = 0.0;      ///< slowest per-node daemon start
  double max_pull_time = 0.0;         ///< slowest per-node image fetch
  double max_instantiate_time = 0.0;  ///< slowest per-node container spawn
  std::uint64_t bytes_transferred = 0;  ///< aggregate wire traffic
  int nodes = 0;
  int containers = 0;
  int pull_retries = 0;  ///< transient registry/staging errors retried
  double retry_backoff_time = 0.0;  ///< backoff waited across retries
  /// Extra time lost to shared-FS brownout windows (fail-slow hazards)
  /// across staging, conversion, and node mounts; 0 without hazards.
  double brownout_delay_time = 0.0;
  sim::Samples node_ready_times;  ///< distribution across nodes
};

class DeploymentSimulator {
 public:
  /// \param cluster target machine (copied)
  /// \param seed    deterministic jitter stream for per-node variation
  explicit DeploymentSimulator(hw::ClusterSpec cluster,
                               std::uint64_t seed = 42);

  /// Simulates deploying \p image with \p runtime onto \p nodes nodes
  /// running \p ranks_per_node ranks each.  Docker instantiates one
  /// container per rank; the HPC runtimes join ranks to one container
  /// environment per node.
  ///
  /// \throws std::invalid_argument for bad node counts,
  ///         RuntimeUnavailableError / ExecFormatError per transport rules.
  DeploymentResult deploy(const ContainerRuntime& runtime, const Image& image,
                          int nodes, int ranks_per_node);

  /// Bare-metal "deployment" (always zero; provided for uniform reporting).
  DeploymentResult deploy_bare_metal(int nodes, int ranks_per_node) const;

  /// Layer digests cached on the nodes from previous deployments (the
  /// simulator models a homogeneous cache: the same job pool re-runs the
  /// same images).  Docker-layered pulls skip cached layers; flat images
  /// are cached whole by digest.
  void seed_node_cache(const Image& image);
  void clear_node_cache() noexcept { node_cache_.clear(); }
  std::size_t cached_layers() const noexcept { return node_cache_.size(); }

  /// Attaches an observability collector (not owned; may be null or
  /// disabled).  deploy() then records the central gateway/staging phase
  /// on track 0 and each node's service / pull / instantiate phases on
  /// track 1+n, with pull retries as instant markers.  All times are the
  /// DES's simulated seconds, so traces stay deterministic per seed.
  void set_collector(obs::Collector* collector) noexcept {
    obs_ = collector;
  }

  /// Enables fault injection: registry pulls and shared-FS staging may
  /// fail transiently per \p spec and are retried with \p retry backoff
  /// (failed pulls re-enter the contended registry-stream pool).  A pull
  /// exceeding the retry budget throws fault::FaultError from deploy().
  void set_faults(fault::FaultSpec spec, fault::RetryPolicy retry);

  /// Attaches a correlated-hazard schedule: shared-FS brownout windows
  /// stretch central staging/conversion and per-node mounts (Docker's
  /// node-local pulls bypass the shared filesystem and are unaffected).
  /// An empty schedule — the default — changes nothing, byte-for-byte.
  void set_hazards(fault::HazardSchedule hazards) {
    hazards_ = std::move(hazards);
  }

  /// Per-node recovery cost [s] after a crash during execution, excluding
  /// the scheduler's requeue delay: Docker restarts the daemon on the
  /// replacement node and re-pulls the full image; Singularity/Shifter
  /// re-stage from the shared filesystem (metadata page-in); bare metal
  /// only re-execs.  \p image may be null for bare metal.
  double recovery_time(const ContainerRuntime& runtime, const Image* image,
                       int ranks_per_node) const;

 private:
  hw::ClusterSpec cluster_;
  std::uint64_t seed_;
  std::set<std::string> node_cache_;
  fault::FaultSpec faults_{};
  fault::RetryPolicy retry_{};
  fault::HazardSchedule hazards_{};
  obs::Collector* obs_ = nullptr;  ///< not owned; null = no tracing
};

}  // namespace hpcs::container
