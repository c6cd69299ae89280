#include "container/deployment.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "container/transport.hpp"
#include "fault/schedule.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"

namespace hpcs::container {

DeploymentSimulator::DeploymentSimulator(hw::ClusterSpec cluster,
                                         std::uint64_t seed)
    : cluster_(std::move(cluster)), seed_(seed) {
  cluster_.validate();
}

void DeploymentSimulator::seed_node_cache(const Image& image) {
  for (const auto& l : image.layers()) node_cache_.insert(l.id);
}

void DeploymentSimulator::set_faults(fault::FaultSpec spec,
                                     fault::RetryPolicy retry) {
  spec.validate();
  retry.validate();
  faults_ = std::move(spec);
  retry_ = retry;
}

double DeploymentSimulator::recovery_time(const ContainerRuntime& runtime,
                                          const Image* image,
                                          int ranks_per_node) const {
  if (runtime.kind() == RuntimeKind::BareMetal || image == nullptr)
    return 0.0;  // re-exec only; the scheduler requeue is charged elsewhere
  if (ranks_per_node < 1)
    throw std::invalid_argument("recovery_time: ranks_per_node < 1");

  // The replacement node starts its runtime service from scratch.
  double t = runtime.node_service_time(cluster_.node);
  if (runtime.native_format() == ImageFormat::DockerLayered) {
    // Cold local cache: the full image is re-pulled and re-extracted.
    const double bw =
        std::min(cluster_.fabric.bandwidth(), cluster_.registry_bw);
    t += static_cast<double>(image->transfer_bytes()) / bw +
         static_cast<double>(image->uncompressed_bytes()) /
             cluster_.node.disk_write_bw;
  } else {
    // The image persists on the shared filesystem: metadata page-in only.
    t += static_cast<double>(image->transfer_bytes()) * 0.002 /
         cluster_.node.disk_read_bw;
  }
  const double inst = runtime.instantiate_time(*image, cluster_.node);
  t += runtime.kind() == RuntimeKind::Docker
           ? inst * static_cast<double>(ranks_per_node)
           : inst;
  return t;
}

DeploymentResult DeploymentSimulator::deploy_bare_metal(
    int nodes, int ranks_per_node) const {
  if (nodes < 1 || nodes > cluster_.node_count || ranks_per_node < 1)
    throw std::invalid_argument("deploy_bare_metal: bad geometry");
  DeploymentResult r;
  r.nodes = nodes;
  r.containers = 0;
  for (int i = 0; i < nodes; ++i) r.node_ready_times.add(0.0);
  return r;
}

DeploymentResult DeploymentSimulator::deploy(const ContainerRuntime& runtime,
                                             const Image& image, int nodes,
                                             int ranks_per_node) {
  if (nodes < 1 || nodes > cluster_.node_count)
    throw std::invalid_argument("deploy: node count outside cluster");
  if (ranks_per_node < 1 ||
      ranks_per_node > cluster_.node.cpu.cores())
    throw std::invalid_argument("deploy: ranks_per_node outside node");
  if (runtime.kind() == RuntimeKind::BareMetal)
    return deploy_bare_metal(nodes, ranks_per_node);

  // Validates runtime availability and ISA compatibility.
  (void)resolve_comm_paths(runtime, &image, cluster_);

  sim::Engine engine;
  sim::Rng rng(seed_);
  sim::Resource registry_streams(
      engine, static_cast<std::size_t>(cluster_.registry_streams));

  DeploymentResult result;
  result.nodes = nodes;

  const bool per_rank_containers = runtime.kind() == RuntimeKind::Docker;
  result.containers = per_rank_containers ? nodes * ranks_per_node : nodes;

  const bool inject_faults =
      faults_.enabled && faults_.registry_fault_rate > 0.0;
  const fault::FaultInjector injector(faults_, seed_);
  obs::Collector* const obs = obs_ && obs_->enabled() ? obs_ : nullptr;

  // --- central phase: gateway conversion (Shifter) or shared-FS staging
  //     (Singularity); Docker has no central phase. -------------------------
  double central_done = 0.0;
  const bool node_local_pull =
      runtime.native_format() == ImageFormat::DockerLayered;
  if (runtime.kind() == RuntimeKind::Shifter) {
    central_done = runtime.image_gateway_time(image, cluster_.node);
    result.bytes_transferred += image.transfer_bytes();  // gateway pull
  } else if (!node_local_pull) {
    // Stage the flat image once onto the shared filesystem.
    central_done = static_cast<double>(image.transfer_bytes()) /
                   cluster_.registry_bw;
    result.bytes_transferred += image.transfer_bytes();
  }
  if (inject_faults && central_done > 0.0) {
    // The central pull/conversion hits the registry too: a transient
    // error restarts it after backoff, losing a drawn fraction of work.
    const int failures = injector.staging_failures(retry_.max_attempts);
    if (failures >= retry_.max_attempts)
      throw fault::FaultError(
          "deploy: central image staging failed " +
          std::to_string(failures) + " times (retry budget exhausted)");
    const double base_staging = central_done;
    for (int a = 0; a < failures; ++a) {
      central_done += base_staging * injector.wasted_fraction(-1, a);
      if (obs)
        obs->instant(0, "staging-retry", "registry", central_done,
                     {{"attempt", std::to_string(a + 1)}});
    }
    central_done += retry_.total_backoff(failures);
    result.pull_retries += failures;
    result.retry_backoff_time += retry_.total_backoff(failures);
  }
  {
    // Central staging/conversion writes to the shared filesystem; a
    // brownout window covering it stretches the I/O (no-op without one).
    const double actual = hazards_.stretched(0.0, central_done);
    result.brownout_delay_time += actual - central_done;
    central_done = actual;
  }
  result.gateway_time = central_done;
  if (obs && central_done > 0.0)
    obs->span(0,
              runtime.kind() == RuntimeKind::Shifter ? "gateway-convert"
                                                     : "stage",
              "deployment", 0.0, central_done,
              {{"image", image.reference()}});

  // --- per-node phase -------------------------------------------------------
  const double egress_share =
      cluster_.registry_bw /
      static_cast<double>(std::min(nodes, cluster_.registry_streams));
  const double downlink = cluster_.fabric.bandwidth();
  const double pull_bw = std::min(downlink, egress_share);

  std::vector<double> ready(static_cast<std::size_t>(nodes), 0.0);
  // Owns every node's retry chain; the chains and the events they schedule
  // refer to it by raw pointer, so no chain owns itself.  Declared after
  // the engine, it is destroyed first, also when a FaultError leaves
  // events unrun; those events are destroyed without running.
  std::vector<std::unique_ptr<std::function<void(int)>>> chains;
  for (int n = 0; n < nodes; ++n) {
    auto node_rng = rng.child(static_cast<std::uint64_t>(n));
    const double jitter = node_rng.lognormal_median(1.0, 0.03);

    // 1. Node service (root daemon) startup.
    const double service =
        runtime.node_service_time(cluster_.node) * jitter;
    result.max_service_time = std::max(result.max_service_time, service);

    // 2. Image materialization on the node.
    double pull = 0.0;
    std::uint64_t wire_bytes = 0;
    if (node_local_pull) {
      // Skip layers already in the node cache from earlier deployments.
      const double ratio = compression_ratio(image.format());
      std::uint64_t uncompressed = 0;
      for (const auto& l : image.layers())
        if (!node_cache_.count(l.id)) uncompressed += l.bytes;
      wire_bytes = static_cast<std::uint64_t>(
          static_cast<double>(uncompressed) * ratio);
      const double transfer = static_cast<double>(wire_bytes) / pull_bw;
      const double extract =
          static_cast<double>(uncompressed) / cluster_.node.disk_write_bw;
      pull = (transfer + extract) * jitter;
      result.bytes_transferred += wire_bytes;
    } else {
      // Open/mount from the shared filesystem: metadata page-in only.
      pull = (static_cast<double>(image.transfer_bytes()) * 0.002 /
              cluster_.node.disk_read_bw) *
             jitter;
      // Shared-FS brownouts stretch the page-in; node-local Docker pulls
      // above bypass the shared filesystem and are unaffected.
      const double actual = hazards_.stretched(central_done + service, pull);
      result.brownout_delay_time += actual - pull;
      pull = actual;
    }
    result.max_pull_time = std::max(result.max_pull_time, pull);

    // 3. Container instantiation.
    const double inst_one =
        runtime.instantiate_time(image, cluster_.node) * jitter;
    // Docker serializes container creation through the daemon; the HPC
    // runtimes exec per rank in parallel, so only one instantiation time
    // is paid per node.
    const double inst = per_rank_containers
                            ? inst_one * static_cast<double>(ranks_per_node)
                            : inst_one;
    result.max_instantiate_time = std::max(result.max_instantiate_time, inst);

    const std::size_t idx = static_cast<std::size_t>(n);
    const int track = 1 + n;  // node tracks; track 0 is the central phase
    if (node_local_pull) {
      if (obs) obs->span(track, "service", "deployment", 0.0, service);
      // Transient registry errors for this node's pull, drawn up front
      // from its named stream (independent of event execution order).
      int failures = 0;
      std::vector<double> wasted;
      if (inject_faults) {
        failures = injector.pull_failures(n, retry_.max_attempts);
        if (failures >= retry_.max_attempts)
          throw fault::FaultError(
              "deploy: node " + std::to_string(n) +
              " registry pull failed " + std::to_string(failures) +
              " times (retry budget exhausted)");
        wasted.reserve(static_cast<std::size_t>(failures));
        for (int a = 0; a < failures; ++a) {
          wasted.push_back(injector.wasted_fraction(n, a));
          result.bytes_transferred += static_cast<std::uint64_t>(
              static_cast<double>(wire_bytes) * wasted.back());
        }
      }

      // The pull contends for a registry stream; daemon start happens first
      // on the node, then the pull queues at the registry.  A failed
      // attempt occupies its stream for the wasted fraction, backs off,
      // and re-enters the queue behind whoever is waiting.
      chains.push_back(std::make_unique<std::function<void(int)>>());
      std::function<void(int)>* const chain = chains.back().get();
      *chain = [&engine, &registry_streams, &ready, &result, this, obs,
                track, idx, pull, inst, failures, wasted,
                chain](int attempt) {
        const bool fails = attempt < failures;
        const double slot_time =
            fails ? pull * wasted[static_cast<std::size_t>(attempt)] : pull;
        registry_streams.request(
            slot_time,
            [&engine, &ready, &result, this, obs, track, idx, inst,
             slot_time, attempt, fails, chain]() {
              if (obs)
                obs->span(track, fails ? "pull-retry" : "pull", "registry",
                          engine.now() - slot_time, slot_time,
                          {{"attempt", std::to_string(attempt)}});
              if (fails) {
                const double backoff = retry_.delay(attempt + 1);
                ++result.pull_retries;
                result.retry_backoff_time += backoff;
                if (obs)
                  obs->instant(track, "pull-retry", "registry", engine.now(),
                               {{"attempt", std::to_string(attempt + 1)}});
                engine.schedule(backoff,
                                [chain, attempt]() { (*chain)(attempt + 1); });
              } else {
                if (obs)
                  obs->span(track, "instantiate", "deployment", engine.now(),
                            inst);
                engine.schedule(inst, [&engine, &ready, idx]() {
                  ready[idx] = engine.now();
                });
              }
            });
      };
      engine.schedule(service, [chain]() { (*chain)(0); });
    } else {
      // Shared-FS path: wait for the central phase, then mount + exec.
      // The schedule is static, so spans are recorded up front.
      if (obs) {
        obs->span(track, "service", "deployment", central_done, service);
        obs->span(track, "mount", "registry", central_done + service, pull);
        obs->span(track, "instantiate", "deployment",
                  central_done + service + pull, inst);
      }
      engine.schedule_at(central_done, [&, idx, service, pull, inst]() {
        engine.schedule(service + pull + inst,
                        [&, idx]() { ready[idx] = engine.now(); });
      });
    }
  }

  engine.run();
  for (double t : ready) result.node_ready_times.add(t);
  result.total_time = result.node_ready_times.max();
  return result;
}

}  // namespace hpcs::container
