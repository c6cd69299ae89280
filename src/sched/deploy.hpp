#pragma once

/// \file deploy.hpp
/// \brief Per-job container deployment inside the scheduler's event loop,
///        with shared-FS and registry contention (the PR-7 pull storm at
///        batch scale).
///
/// With the gateway enabled, deployments *contend*:
///
///   * upstream fetches share the registry uplink and shared-FS page-ins
///     share the shared-filesystem read bandwidth — processor sharing:
///     N concurrent transfers each progress at bw/N, recomputed at every
///     membership change, so a pull storm stretches everybody;
///   * cache misses coalesce per (digest, runtime) into single-flight
///     groups, as in the gateway — one fetch + conversion serves every
///     concurrently-queued job asking for the image;
///   * conversions (Docker layers -> squashfs/SIF) run on the gateway's
///     bounded worker pool behind a FIFO queue;
///   * converted images land in the gateway's TieredCache, so repeat
///     waves page in from the node-local or shared tier instead;
///   * shared-FS brownout windows (fault::HazardSchedule) stretch every
///     shared-filesystem byte by the window's fail-slow factor.
///
/// With the gateway disabled every job sees the same pipeline at
/// dedicated, uncontended rates (and unbounded conversion slots) — the
/// control the cross-layer contention regression test compares against.
///
/// Runtime shapes (Section B.1 of the paper, extended):
///   Docker       — every node pulls the layers itself (bytes x nodes
///                  through the registry uplink), then unpacks locally;
///   Singularity/ — one fetch + conversion per (digest, format), then a
///   Shifter        shared-FS page-in per job;
///   bare-metal   — nothing to deploy, ready immediately.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "container/runtime.hpp"
#include "fault/hazard.hpp"
#include "gateway/cache.hpp"
#include "gateway/config.hpp"
#include "gateway/workload.hpp"
#include "obs/collector.hpp"
#include "sim/engine.hpp"

namespace hpcs::sched {

struct DeployStats {
  std::uint64_t deploys = 0;           ///< container deployments started
  std::uint64_t upstream_fetches = 0;  ///< registry fetches dispatched
  std::uint64_t conversions = 0;
  std::uint64_t coalesced = 0;  ///< misses that joined an in-flight group
  std::uint64_t bytes_transferred = 0;
  std::size_t max_active_transfers = 0;
  std::size_t max_conversion_queue = 0;
  gateway::CacheStats cache;
};

class DeployPipeline {
 public:
  /// Fired at the simulated time \p job's image is ready on every node.
  using ReadyFn = std::function<void(int job, double now)>;

  /// \p catalog must outlive the pipeline; \p collector may be null or
  /// disabled.  \p contention false = uncontended control (dedicated
  /// rates, unbounded conversion, no coalescing accounting changes).
  DeployPipeline(sim::Engine& engine, gateway::GatewayConfig config,
                 bool contention, const gateway::ImageCatalog& catalog,
                 fault::HazardSchedule hazards, ReadyFn on_ready,
                 obs::Collector* collector = nullptr);

  /// Begins deploying \p job's image onto \p nodes nodes.  Bare-metal
  /// jobs are ready immediately: on_ready fires before start() returns.
  void start(int job, container::RuntimeKind runtime, int image, int nodes,
             double now);

  /// Abandons \p job's deployment (walltime kill while deploying): its
  /// private transfers are removed from the pools, its single-flight
  /// membership is dropped, and any still-pending ready callback is
  /// suppressed.  A group-critical fetch keeps running — other jobs (and
  /// the cache) still want the image.
  void cancel(int job);

  /// Active processor-sharing transfers (upstream + shared FS) — the
  /// fabric-pressure signal for the compute-interference model.
  std::size_t active_transfers() const noexcept {
    return transfers_.size();
  }

  /// Syncs the cache counters and returns the totals.
  const DeployStats& stats();

 private:
  enum class Pool { Upstream, SharedFs };

  /// EventId 0 is a real id, so "no completion event yet" needs its own
  /// sentinel.
  static constexpr sim::EventId kNoEvent = ~sim::EventId{0};

  struct Transfer {
    Pool pool = Pool::Upstream;
    double remaining = 0.0;  ///< bytes left at last_settle
    double last_settle = 0.0;
    double rate = 0.0;  ///< bytes/s granted at last reprogram
    double started = 0.0;
    sim::EventId ev = kNoEvent;
    int owner = -1;  ///< owning job; -1 = group-critical (uncancellable)
    std::function<void(double)> done;
  };

  /// One single-flight group: jobs awaiting a (digest, runtime) install.
  /// The first miss creates it and leads the fetch; later misses join.
  struct Group {
    std::vector<int> waiters;
    container::RuntimeKind runtime = container::RuntimeKind::Shifter;
    std::uint64_t bytes = 0;
  };

  void begin_transfer(Pool pool, double bytes, int owner, double now,
                      std::function<void(double)> done);
  void complete_transfer(std::uint64_t id);
  /// Settles progress and re-derives every pool member's rate + event
  /// (called on membership changes and brownout window boundaries).
  void reprogram(Pool pool, double now);
  double pool_bandwidth(Pool pool, double now) const noexcept;
  void enqueue_conversion(const std::string& digest, double now);
  void run_conversion(const std::string& digest, double now);
  void finish_conversion(const std::string& digest, double start,
                         double now);
  void ready(int job, double now);

  sim::Engine& engine_;
  gateway::GatewayConfig config_;
  bool contention_;
  const gateway::ImageCatalog& catalog_;
  fault::HazardSchedule hazards_;
  ReadyFn on_ready_;
  obs::Collector* collector_;  ///< null or disabled = record nothing

  gateway::TieredCache cache_;
  std::map<std::uint64_t, Transfer> transfers_;
  std::uint64_t next_transfer_ = 1;
  std::map<std::string, Group> groups_;  ///< in-flight groups by key
  std::deque<std::string> conversion_queue_;
  int busy_workers_ = 0;
  std::set<int> cancelled_;

  DeployStats stats_;
};

}  // namespace hpcs::sched
