#pragma once

/// \file service.hpp
/// \brief The multi-tenant image-gateway daemon simulation.
///
/// GatewayService models a registry front-end the way NERSC operates one:
/// tenants submit pull requests; hits are served straight from the tiered
/// cache; misses join a single-flight group keyed by digest (one upstream
/// fetch + conversion no matter how many tenants ask), and the fetch +
/// conversion runs on a bounded worker pool behind a bounded FIFO queue.
/// Overload degrades gracefully instead of collapsing: beyond
/// `max_outstanding` admitted miss-requests arrivals are shed at the door
/// (admission control), and a full conversion queue rejects new groups
/// (backpressure).  Faults ride on the existing `hpcs_fault` layer —
/// transient upstream errors retried per-tenant on named RNG streams, and
/// worker crashes that restart the interrupted job after a recovery cost.
///
/// Correlated hazards (`fault::HazardSchedule`) and their mitigations are
/// layered on top, all default-off and byte-neutral when off:
///
///   * shared-FS brownouts stretch conversion output, shared-tier reads,
///     and waiter page-ins by the window's fail-slow factor;
///   * upstream gray windows raise the per-attempt failure probability
///     and inflate attempt latency; partitions fail attempts outright;
///   * a per-upstream CircuitBreaker fast-fails (or stale-serves) fetch
///     work while the upstream is known-bad, with deterministic half-open
///     probe timing;
///   * hedged fetches race a second attempt after a quantile-derived
///     delay, first success wins and cancels the loser;
///   * per-request deadline budgets shed requests that cannot be served
///     in time instead of completing them uselessly late;
///   * with `serve_stale`, an open breaker degrades to serving recently
///     evicted shared-tier entries (counted in `stale_served`).
///
/// The simulation runs on a `sim::Engine`: arrivals must be fed in
/// non-decreasing time order and advance the engine's clock to their
/// time, worker completions are engine events (equal times fire in
/// dispatch order), and no draw or data structure depends on host time or
/// thread identity — so a run is byte-reproducible from (config, catalog,
/// injector seed).

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fault/hazard.hpp"
#include "fault/schedule.hpp"
#include "gateway/breaker.hpp"
#include "gateway/cache.hpp"
#include "gateway/config.hpp"
#include "gateway/hedge.hpp"
#include "gateway/workload.hpp"
#include "obs/collector.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"

namespace hpcs::gateway {

/// Everything one service run counted.  `completed + failed +
/// rejected_queue + rejected_admission + deadline_sheds +
/// breaker_fastfail == arrivals` once finish() ran; stale serves count
/// inside `completed` with `stale_served` as the degraded-mode subset.
struct GatewayStats {
  std::uint64_t arrivals = 0;
  std::uint64_t completed = 0;  ///< served, any tier (incl. stale)
  std::uint64_t failed = 0;     ///< upstream retry budget exhausted
  std::uint64_t rejected_queue = 0;      ///< backpressure: queue full
  std::uint64_t rejected_admission = 0;  ///< admission: too much in flight
  std::uint64_t deadline_sheds = 0;   ///< deadline budget exhausted
  std::uint64_t breaker_fastfail = 0; ///< shed while the breaker was open
  std::uint64_t stale_served = 0;     ///< degraded stale shared-tier serves
  std::uint64_t coalesced = 0;  ///< misses that joined an in-flight group
  std::uint64_t upstream_fetches = 0;
  std::uint64_t conversions = 0;
  std::uint64_t upstream_retries = 0;
  std::uint64_t worker_crashes = 0;
  std::uint64_t hedged_fetches = 0;  ///< races actually launched
  std::uint64_t hedge_wins = 0;      ///< races the hedge finished first
  std::uint64_t breaker_opens = 0;   ///< times the breaker tripped open
  double hedge_wasted_s = 0.0;  ///< cancelled-attempt upstream seconds
  double wasted_work_s = 0.0;   ///< crash-discarded worker seconds
  std::size_t max_queue_depth = 0;
  std::size_t max_outstanding = 0;
  CacheStats cache;

  /// "Job can start" latency per served request (arrival -> image ready
  /// on the requesting node), and per-job wait for a conversion worker.
  sim::Samples start_latency;
  sim::Samples queue_wait;
};

class GatewayService {
 public:
  /// \p catalog must outlive the service.  \p collector may be null or
  /// disabled (the usual zero-cost-off contract).  \p hazards defaults to
  /// an inert injector: no draws, no windows, byte-identical behavior.
  GatewayService(GatewayConfig config, container::RuntimeKind runtime,
                 const ImageCatalog& catalog, fault::FaultInjector injector,
                 double horizon_s, obs::Collector* collector = nullptr,
                 const fault::HazardInjector& hazards = {});

  /// Scheduled completions capture `this`, so a copy or move would leave
  /// them calling into the old object.
  GatewayService(const GatewayService&) = delete;
  GatewayService& operator=(const GatewayService&) = delete;

  /// Feeds one arrival; times must be non-decreasing.
  void submit(const PullRequest& request);

  /// Drains all in-flight work; further submits are invalid.
  const GatewayStats& finish();

  const GatewayStats& stats() const noexcept { return stats_; }
  const TieredCache& cache() const noexcept { return cache_; }
  const CircuitBreaker& breaker() const noexcept { return breaker_; }
  const fault::HazardSchedule& hazards() const noexcept { return hazards_; }

 private:
  struct Waiter {
    int tenant = 0;
    double arrival = 0.0;
    double deadline = std::numeric_limits<double>::infinity();
  };

  /// One single-flight group: the conversion job for a digest, plus the
  /// tenants it will serve on completion.  The first miss for a digest
  /// creates it and leads the fetch; later misses join it.
  struct Group {
    int image = 0;
    int leader_tenant = 0;
    double enqueued_at = 0.0;
    bool failed = false;  ///< leader exhausted the upstream retry budget
    std::vector<Waiter> waiters;
  };

  /// One computed upstream fetch: total duration from dispatch (waste +
  /// backoff + the successful attempt, if any) and the failure count.
  struct FetchResult {
    double fetch_s = 0.0;
    int failures = 0;
    bool exhausted = false;
  };

  /// Picks the next runnable group off the queue (shedding expired or
  /// breaker-blocked groups along the way) and dispatches it on
  /// \p worker, or parks the worker idle when nothing is runnable.
  void start_next_job(int worker, double now);
  void complete_job(const std::string& digest, double end);
  /// Walks the worker's crash schedule across a nominal service time and
  /// returns the actual end; counts restarts and records fault spans.
  double apply_crashes(int worker, double start, double service_s);
  /// Upstream fetch cost for \p stream starting at \p start, walked
  /// attempt by attempt: each failed attempt wastes a drawn fraction of
  /// the transfer and then backs off, and gray windows and partitions
  /// apply at the simulated time each attempt actually runs.  Draws come
  /// from \p stream's own "pull" and "waste" children, never from a
  /// stream another fetch advances.  Hedged fetches pass
  /// \p bypass_shared_fs: they stream direct from the upstream, so
  /// brownout windows (a shared-FS hazard) don't stretch them, while
  /// gray windows and partitions (upstream hazards) still do.
  FetchResult compute_fetch(const std::string& stream, std::uint64_t bytes,
                            double start,
                            bool bypass_shared_fs = false) const;
  /// Serves \p waiter from a stale shared-tier ghost entry at \p now.
  void serve_stale(const Waiter& waiter, std::uint64_t bytes, double now);
  /// Sheds one request with reason counters + obs instants.
  void shed_breaker(double now);
  void shed_deadline(double now);

  GatewayConfig config_;
  ConversionModel conversion_;
  const ImageCatalog& catalog_;
  fault::FaultInjector injector_;
  double horizon_s_;
  obs::Collector* collector_;  ///< null unless recording

  sim::Engine engine_;  ///< worker completions
  TieredCache cache_;
  fault::HazardSchedule hazards_;
  CircuitBreaker breaker_;
  HedgePlanner hedge_;
  std::map<std::string, Group> groups_;  ///< in-flight groups by digest
  std::deque<std::string> queue_;  ///< digests waiting for a worker
  std::set<int> idle_workers_;
  std::vector<std::vector<double>> crash_times_;  ///< per worker, sorted
  std::vector<std::size_t> crash_cursor_;
  std::uint64_t outstanding_ = 0;  ///< admitted, unfinished miss requests
  bool finished_ = false;

  GatewayStats stats_;
};

}  // namespace hpcs::gateway
