#include "gateway/service.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace hpcs::gateway {

namespace {

/// Per-tenant fault-stream name: retries stay keyed to the tenant that
/// leads the fetch (and the digest it pulls), never to a global puller
/// index, so draws are invariant under request sharding and `--jobs`.
std::string tenant_stream(int tenant, const std::string& digest) {
  return "tenant/" + std::to_string(tenant) + "/" + digest;
}

}  // namespace

GatewayService::GatewayService(GatewayConfig config,
                               container::RuntimeKind runtime,
                               const ImageCatalog& catalog,
                               fault::FaultInjector injector,
                               double horizon_s, obs::Collector* collector,
                               const fault::HazardInjector& hazards)
    : config_(std::move(config)),
      conversion_(conversion_model(runtime)),
      catalog_(catalog),
      injector_(std::move(injector)),
      horizon_s_(horizon_s),
      collector_(collector),
      cache_(config_.local_cache_bytes, config_.shared_cache_bytes),
      breaker_(config_.breaker),
      hedge_(config_.hedge) {
  config_.validate();
  if (horizon_s <= 0)
    throw std::invalid_argument("GatewayService: horizon must be > 0");
  for (int w = 0; w < config_.workers; ++w) idle_workers_.insert(w);
  // Worker-crash schedule: drawn up-front from the injector's named
  // streams (a crash is assigned to `event.node`, here a worker index).
  // The window covers the arrival horizon plus drain slack; the spec's
  // max_crashes cap bounds it regardless.
  crash_times_.assign(static_cast<std::size_t>(config_.workers), {});
  crash_cursor_.assign(static_cast<std::size_t>(config_.workers), 0);
  const fault::FaultSchedule crashes =
      injector_.crash_schedule(4.0 * horizon_s_, config_.workers);
  for (const fault::FaultEvent& e : crashes.events)
    if (e.node >= 0 && e.node < config_.workers)
      crash_times_[static_cast<std::size_t>(e.node)].push_back(e.time);
  // Correlated hazards: brownout/gray/partition windows plus rack bursts,
  // the latter folded into the per-worker crash schedules (a gateway's
  // "rack" is its worker pool).
  hazards_ = hazards.schedule(4.0 * horizon_s_, config_.workers);
  if (!hazards_.bursts.empty()) {
    for (const fault::FaultEvent& e :
         hazards_.burst_crashes(config_.workers))
      if (e.node >= 0 && e.node < config_.workers)
        crash_times_[static_cast<std::size_t>(e.node)].push_back(e.time);
    for (std::vector<double>& times : crash_times_)
      std::sort(times.begin(), times.end());
  }
}

void GatewayService::submit(const PullRequest& request) {
  if (finished_)
    throw std::logic_error("GatewayService: submit after finish()");
  if (request.time < engine_.now())
    throw std::invalid_argument(
        "GatewayService: arrivals must be time-ordered");
  engine_.run_until(request.time);
  ++stats_.arrivals;
  const bool record = collector_ && collector_->enabled();
  if (record) {
    collector_->count("gateway/arrivals");
    collector_->ts_count("gateway/arrivals", request.time);
    // Windowed state samples (per-window max): queue depth, outstanding
    // requests, and whether the breaker is open at this arrival.
    collector_->ts_gauge("gateway/queue_depth", request.time,
                         static_cast<double>(queue_.size()));
    collector_->ts_gauge("gateway/outstanding", request.time,
                         static_cast<double>(outstanding_));
    collector_->ts_gauge(
        "gateway/breaker_open", request.time,
        breaker_.state(request.time) == CircuitBreaker::State::Open ? 1.0
                                                                    : 0.0);
  }

  const std::string& digest = catalog_.digest(request.image);
  const std::uint64_t bytes = catalog_.bytes(request.image);
  const CacheTier tier = cache_.lookup(digest, bytes);
  if (tier != CacheTier::Upstream) {
    const double read_bw = tier == CacheTier::Local
                               ? config_.local_read_bw
                               : config_.shared_read_bw;
    double latency = static_cast<double>(bytes) / read_bw;
    // A brownout slows the shared tier; node-local NVMe is unaffected.
    if (tier == CacheTier::SharedFS)
      latency = hazards_.stretched(request.time, latency);
    ++stats_.completed;
    stats_.start_latency.add(latency);
    if (record) {
      collector_->span(0, "request", "gateway", request.time, latency,
                       {{"tier", std::string(to_string(tier))}});
      collector_->count(tier == CacheTier::Local ? "gateway/hits_local"
                                                 : "gateway/hits_shared");
      collector_->observe("gateway/start_latency_s", latency);
      collector_->ts_count("gateway/cache_lookups", request.time);
      collector_->ts_count("gateway/cache_hits", request.time);
      collector_->ts_count("gateway/completed", request.time + latency);
      // Latency samples land in the window the request *finished* in, so
      // a brownout shows up in the windows it actually covers.
      collector_->ts_observe("gateway/start_latency_s",
                             request.time + latency, latency);
    }
    return;
  }
  if (record) {
    collector_->count("gateway/misses");
    collector_->ts_count("gateway/cache_lookups", request.time);
    collector_->ts_count("gateway/misses", request.time);
  }

  // Miss: admission control first (sheds load before any queue grows),
  // then single-flight coalescing, then the bounded conversion queue.
  if (outstanding_ >= static_cast<std::uint64_t>(config_.max_outstanding)) {
    ++stats_.rejected_admission;
    if (record) {
      collector_->instant(0, "reject-admission", "gateway", request.time);
      collector_->count("gateway/rejected_admission");
      collector_->ts_count("gateway/rejected_admission", request.time);
    }
    return;
  }
  const double deadline =
      config_.deadline.enabled
          ? request.time + config_.deadline.budget_s
          : std::numeric_limits<double>::infinity();
  if (const auto joined = groups_.find(digest); joined != groups_.end()) {
    joined->second.waiters.push_back(
        Waiter{request.tenant, request.time, deadline});
    ++stats_.coalesced;
    ++outstanding_;
  } else {
    // A new group means new fetch work; while the breaker is open, the
    // upstream is known-bad and we degrade (stale serve) or fast-fail
    // instead of queueing work that cannot succeed.
    if (breaker_.state(request.time) == CircuitBreaker::State::Open) {
      const Waiter waiter{request.tenant, request.time, deadline};
      if (config_.serve_stale && cache_.lookup_stale(digest))
        serve_stale(waiter, bytes, request.time);
      else
        shed_breaker(request.time);
      return;
    }
    if (queue_.size() >= static_cast<std::size_t>(config_.queue_capacity)) {
      ++stats_.rejected_queue;
      if (record) {
        collector_->instant(0, "reject-queue", "gateway", request.time);
        collector_->count("gateway/rejected_queue");
        collector_->ts_count("gateway/rejected_queue", request.time);
      }
      return;
    }
    Group group;
    group.image = request.image;
    group.leader_tenant = request.tenant;
    group.enqueued_at = request.time;
    group.waiters.push_back(Waiter{request.tenant, request.time, deadline});
    groups_.emplace(digest, std::move(group));
    queue_.push_back(digest);
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
    ++outstanding_;
    if (!idle_workers_.empty()) {
      const int worker = *idle_workers_.begin();
      idle_workers_.erase(idle_workers_.begin());
      start_next_job(worker, request.time);
    }
  }
  stats_.max_outstanding =
      std::max(stats_.max_outstanding, static_cast<std::size_t>(outstanding_));
}

void GatewayService::start_next_job(int worker, double now) {
  while (!queue_.empty()) {
    const std::string digest = queue_.front();
    queue_.pop_front();
    Group& group = groups_.at(digest);
    const std::uint64_t bytes = catalog_.bytes(group.image);

    // Deadline budgets: a waiter whose budget expired while queued is
    // shed now instead of burning a worker on a uselessly late serve.
    if (config_.deadline.enabled) {
      std::vector<Waiter> alive;
      alive.reserve(group.waiters.size());
      for (const Waiter& waiter : group.waiters) {
        if (waiter.deadline <= now) {
          shed_deadline(now);
          --outstanding_;
        } else {
          alive.push_back(waiter);
        }
      }
      group.waiters = std::move(alive);
      if (group.waiters.empty()) {
        groups_.erase(digest);
        continue;  // the whole group expired; no fetch at all
      }
    }

    // Breaker: groups queued before the breaker opened are degraded or
    // fast-failed at dispatch; in the half-open state allow() admits
    // exactly one probe group.
    if (!breaker_.allow(now)) {
      outstanding_ -= group.waiters.size();
      for (const Waiter& waiter : group.waiters) {
        if (config_.serve_stale && cache_.lookup_stale(digest))
          serve_stale(waiter, bytes, now);
        else
          shed_breaker(now);
      }
      groups_.erase(digest);
      continue;
    }

    const double wait = now - group.enqueued_at;
    stats_.queue_wait.add(wait);
    const bool record = collector_ && collector_->enabled();
    if (record) {
      collector_->observe("gateway/queue_wait_s", wait);
      collector_->ts_observe("gateway/queue_wait_s", now, wait);
    }

    // Upstream fetch with per-tenant named retry streams: a failed
    // attempt wastes a drawn fraction of the transfer and pays the
    // policy backoff.
    const std::string stream = tenant_stream(group.leader_tenant, digest);
    const FetchResult primary = compute_fetch(stream, bytes, now);
    double fetch = primary.fetch_s;
    bool exhausted = primary.exhausted;
    int failures = primary.failures;

    // Hedge: when the primary would outlast the quantile-derived delay,
    // race a second fetch on its own named stream; first success wins
    // and cancels the other attempt.  The hedge streams direct from the
    // upstream, skipping the shared-FS staging pipeline — the point of
    // hedging under fail-slow is taking a path the brownout doesn't own
    // (gray windows and partitions live on the upstream side and still
    // apply).
    HedgeOutcome race;
    if (hedge_.ready()) {
      const double delay = hedge_.delay();
      if (fetch > delay) {
        const FetchResult backup = compute_fetch(stream + "#hedge", bytes,
                                                 now + delay,
                                                 /*bypass_shared_fs=*/true);
        race = resolve_hedge(fetch, !exhausted, delay, backup.fetch_s,
                             !backup.exhausted);
        if (race.hedge_launched) {
          ++stats_.hedged_fetches;
          if (race.hedge_won) ++stats_.hedge_wins;
          stats_.hedge_wasted_s += race.wasted_s;
          failures += backup.failures;
          fetch = race.duration;
          exhausted = race.failed;
        }
      }
    }
    if (!primary.exhausted) hedge_.observe(primary.fetch_s);

    // The fetch outcome is known analytically at dispatch, so the
    // breaker registers it at dispatch time — deterministic probe
    // timing with no reordering hazards.
    const std::uint64_t opens_before = breaker_.opens();
    if (exhausted)
      breaker_.on_failure(now);
    else
      breaker_.on_success();
    if (record && breaker_.opens() > opens_before)
      collector_->ts_count("gateway/breaker_opens", now);

    stats_.upstream_retries += static_cast<std::uint64_t>(failures);
    group.failed = exhausted;

    // Conversion is CPU-bound packing on the gateway node's local
    // scratch, so shared-FS brownouts leave it alone — only the pull
    // (above) and the shared-tier reads are fail-slow I/O.
    const double service =
        exhausted ? fetch : fetch + conversion_.seconds(bytes);
    const double end = apply_crashes(worker, now, service);
    if (record) {
      const int track = 1 + worker;
      const double final_start = end - service;
      collector_->span(track, "upstream-fetch", "registry", final_start,
                       fetch, {{"digest", digest}});
      if (failures > 0) {
        collector_->instant(track, "pull-retry", "registry", final_start,
                            {{"failures", std::to_string(failures)}});
        collector_->count("gateway/upstream_retries",
                          static_cast<double>(failures));
        collector_->ts_count("gateway/upstream_retries", now,
                             static_cast<double>(failures));
      }
      if (race.hedge_launched) {
        collector_->instant(track,
                            race.hedge_won ? "hedge-win" : "hedge-cancel",
                            "registry", final_start, {{"digest", digest}});
        collector_->count("gateway/hedged_fetches");
        if (race.hedge_won) collector_->count("gateway/hedge_wins");
      }
      if (!exhausted)
        collector_->span(track, "convert", "deployment", final_start + fetch,
                         service - fetch,
                         {{"digest", digest}});
    }
    engine_.schedule_at(end, [this, worker, digest, end] {
      complete_job(digest, end);
      start_next_job(worker, end);
    });
    return;
  }
  idle_workers_.insert(worker);
}

GatewayService::FetchResult GatewayService::compute_fetch(
    const std::string& stream, std::uint64_t bytes, double start,
    bool bypass_shared_fs) const {
  FetchResult out;
  const double base = config_.upstream_latency_s +
                      static_cast<double>(bytes) / config_.upstream_bw;
  // Each attempt runs at a concrete simulated time, so gray windows and
  // partitions hit exactly the attempts they cover.  Failure draws come
  // from "fault/pull/<stream>", waste draws from
  // "fault/waste/<stream>/<attempt>".  Without hazard windows nothing is
  // partitioned, gray or stretched, and the walk is the plain retry loop.
  sim::Rng pull = injector_.stream("pull").child(stream);
  const double base_rate = injector_.spec().enabled
                               ? injector_.spec().registry_fault_rate
                               : 0.0;
  double t = start;
  for (int a = 0; a < config_.retry.max_attempts; ++a) {
    if (hazards_.partitioned_at(t)) {
      // No route to the upstream: the attempt dies at handshake cost
      // without transferring (or drawing) anything.
      out.fetch_s += config_.upstream_latency_s;
      t += config_.upstream_latency_s;
    } else {
      const fault::HazardWindow* gray = hazards_.gray_at(t);
      const double rate =
          gray ? std::max(base_rate, gray->fault_rate) : base_rate;
      const double attempt = gray ? base * gray->factor : base;
      const bool fail = rate > 0.0 && pull.uniform() < rate;
      if (!fail) {
        // Pulled bytes land on the shared filesystem, so a brownout
        // stretches the transfer like any other shared-FS I/O — unless
        // this is a direct-path (hedged) fetch that bypasses staging.
        out.fetch_s +=
            bypass_shared_fs ? attempt : hazards_.stretched(t, attempt);
        return out;
      }
      const double waste = injector_.stream("waste")
                               .child(stream)
                               .child(static_cast<std::uint64_t>(a))
                               .uniform();
      const double cost = bypass_shared_fs
                              ? attempt * waste
                              : hazards_.stretched(t, attempt * waste);
      out.fetch_s += cost;
      t += cost;
    }
    ++out.failures;
    const double backoff = config_.retry.delay(out.failures);
    out.fetch_s += backoff;
    t += backoff;
  }
  out.exhausted = true;
  return out;
}

void GatewayService::serve_stale(const Waiter& waiter, std::uint64_t bytes,
                                 double now) {
  // The evicted entry is still on the shared filesystem; page it in at
  // shared-tier speed (brownout-stretched like any shared read).
  const double latency = hazards_.stretched(
      now, static_cast<double>(bytes) / config_.shared_read_bw);
  ++stats_.completed;
  ++stats_.stale_served;
  stats_.start_latency.add(now + latency - waiter.arrival);
  if (collector_ && collector_->enabled()) {
    collector_->span(0, "request", "gateway", waiter.arrival,
                     now + latency - waiter.arrival, {{"tier", "stale"}});
    collector_->count("gateway/stale_served");
    collector_->observe("gateway/start_latency_s",
                        now + latency - waiter.arrival);
    collector_->ts_count("gateway/stale_served", now);
    collector_->ts_count("gateway/completed", now + latency);
    collector_->ts_observe("gateway/start_latency_s", now + latency,
                           now + latency - waiter.arrival);
  }
}

void GatewayService::shed_breaker(double now) {
  ++stats_.breaker_fastfail;
  if (collector_ && collector_->enabled()) {
    collector_->instant(0, "breaker-shed", "gateway", now);
    collector_->count("gateway/breaker_fastfail");
    collector_->ts_count("gateway/breaker_fastfail", now);
  }
}

void GatewayService::shed_deadline(double now) {
  ++stats_.deadline_sheds;
  if (collector_ && collector_->enabled()) {
    collector_->instant(0, "deadline-shed", "gateway", now);
    collector_->count("gateway/deadline_sheds");
    collector_->ts_count("gateway/deadline_sheds", now);
  }
}

double GatewayService::apply_crashes(int worker, double start,
                                     double service_s) {
  const std::vector<double>& times =
      crash_times_[static_cast<std::size_t>(worker)];
  std::size_t& cursor = crash_cursor_[static_cast<std::size_t>(worker)];
  while (cursor < times.size() && times[cursor] <= start) ++cursor;
  double t0 = start;
  const bool record = collector_ && collector_->enabled();
  while (cursor < times.size() && times[cursor] < t0 + service_s) {
    const double crash = times[cursor++];
    ++stats_.worker_crashes;
    stats_.wasted_work_s += crash - t0;
    if (record) {
      collector_->span(1 + worker, "worker-restart", "fault", crash,
                       config_.worker_recovery_s);
      collector_->count("gateway/worker_crashes");
      collector_->ts_count("gateway/worker_crashes", crash);
    }
    // The job restarts from scratch once the worker recovers.
    t0 = crash + config_.worker_recovery_s;
  }
  return t0 + service_s;
}

void GatewayService::complete_job(const std::string& digest, double end) {
  Group group = std::move(groups_.at(digest));
  groups_.erase(digest);
  const std::uint64_t bytes = catalog_.bytes(group.image);
  outstanding_ -= group.waiters.size();
  const bool record = collector_ && collector_->enabled();
  if (group.failed) {
    stats_.failed += group.waiters.size();
    if (record) {
      collector_->instant(0, "group-failed", "gateway", end,
                          {{"digest", digest}});
      collector_->count("gateway/failed",
                        static_cast<double>(group.waiters.size()));
      collector_->ts_count("gateway/failed", end,
                           static_cast<double>(group.waiters.size()));
    }
    return;
  }
  ++stats_.upstream_fetches;
  ++stats_.conversions;
  cache_.install(digest, bytes);
  // Waiters page the converted image in from the shared tier (stretched
  // when a brownout window covers the read).
  const double read = hazards_.stretched(
      end, static_cast<double>(bytes) / config_.shared_read_bw);
  for (const Waiter& waiter : group.waiters) {
    if (end + read > waiter.deadline) {
      shed_deadline(end);
      continue;
    }
    const double latency = end + read - waiter.arrival;
    ++stats_.completed;
    stats_.start_latency.add(latency);
    if (record) {
      collector_->span(0, "request", "gateway", waiter.arrival, latency,
                       {{"tier", "upstream"}});
      collector_->observe("gateway/start_latency_s", latency);
      collector_->ts_count("gateway/completed", end + read);
      collector_->ts_observe("gateway/start_latency_s", end + read, latency);
    }
  }
  if (record) {
    collector_->count("gateway/upstream_fetches");
    collector_->ts_count("gateway/upstream_fetches", end);
  }
}

const GatewayStats& GatewayService::finish() {
  if (!finished_) {
    engine_.run();
    finished_ = true;
    stats_.breaker_opens = breaker_.opens();
    stats_.cache = cache_.stats();
    if (collector_ && collector_->enabled()) {
      collector_->gauge("gateway/max_queue_depth",
                        static_cast<double>(stats_.max_queue_depth));
      collector_->gauge("gateway/max_outstanding",
                        static_cast<double>(stats_.max_outstanding));
      collector_->count("gateway/coalesced",
                        static_cast<double>(stats_.coalesced));
      // Zero-presence counters: shed/failure/retry outcomes show up in
      // the metrics JSON even when they never fired, so dashboards and
      // CI greps can always assert on them.
      collector_->count("gateway/failed", 0.0);
      collector_->count("gateway/rejected_queue", 0.0);
      collector_->count("gateway/rejected_admission", 0.0);
      collector_->count("gateway/upstream_retries", 0.0);
      collector_->count("gateway/worker_crashes", 0.0);
      collector_->count("gateway/deadline_sheds", 0.0);
      collector_->count("gateway/breaker_fastfail", 0.0);
      collector_->count("gateway/stale_served", 0.0);
      collector_->count("gateway/hedged_fetches", 0.0);
      collector_->count("gateway/hedge_wins", 0.0);
      collector_->gauge("gateway/breaker_opens",
                        static_cast<double>(stats_.breaker_opens));
      collector_->gauge("gateway/hedge_wasted_s", stats_.hedge_wasted_s);
      collector_->gauge("gateway/wasted_work_s", stats_.wasted_work_s);
      if (hazards_.active()) {
        // Hazard windows on their own track so request spans keep their
        // parents; category "fault" routes them into the FaultRecovery
        // cost bucket.
        const int track = 1 + config_.workers;
        for (const fault::HazardWindow& w : hazards_.brownouts)
          collector_->span(track, "fs-brownout", "fault", w.start,
                           w.end - w.start);
        for (const fault::HazardWindow& w : hazards_.grays)
          collector_->span(track, "gray-failure", "fault", w.start,
                           w.end - w.start);
        for (const fault::HazardWindow& w : hazards_.partitions)
          collector_->span(track, "net-partition", "fault", w.start,
                           w.end - w.start);
        for (const fault::RackBurst& b : hazards_.bursts)
          collector_->instant(track, "rack-burst", "fault", b.time,
                              {{"nodes", std::to_string(b.node_count)}});
      }
    }
  }
  return stats_;
}

}  // namespace hpcs::gateway
