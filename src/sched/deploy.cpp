#include "sched/deploy.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

namespace hpcs::sched {

namespace {

/// Digest key for the in-flight groups and the cache: the converted artifact
/// is per (image digest, target format), so Singularity and Shifter pulls
/// of the same image are distinct cache entries.
std::string convert_key(const std::string& digest,
                        container::RuntimeKind kind) {
  return digest + "+" + std::string(container::to_string(kind));
}

}  // namespace

void publish(const DeployStats& stats, obs::Collector& collector) {
  const auto count = [&collector](std::string_view name, std::uint64_t n) {
    collector.count(name, static_cast<double>(n));
  };
  count("sched/deploy/upstream_fetch", stats.upstream_fetches);
  count("sched/deploy/conversion", stats.conversions);
  count("sched/deploy/coalesced", stats.coalesced);
  count("sched/deploy/cache_local", stats.cache.local_hits);
  count("sched/deploy/cache_shared", stats.cache.shared_hits);
  collector.gauge("sched/max_active_transfers",
                  static_cast<double>(stats.max_active_transfers));
}

DeployPipeline::DeployPipeline(sim::Engine& engine,
                               gateway::GatewayConfig config,
                               bool contention,
                               const gateway::ImageCatalog& catalog,
                               fault::HazardSchedule hazards,
                               ReadyFn on_ready, obs::Collector* collector)
    : engine_(engine),
      config_(config),
      contention_(contention),
      catalog_(catalog),
      hazards_(std::move(hazards)),
      on_ready_(std::move(on_ready)),
      collector_(collector && collector->enabled() ? collector : nullptr),
      cache_(config.local_cache_bytes, config.shared_cache_bytes) {
  config_.validate();
  // Brownout windows change the shared-FS pool's bandwidth mid-transfer;
  // re-derive every member's rate exactly at each boundary.
  if (contention_) {
    for (const auto& window : hazards_.brownouts) {
      for (const double edge : {window.start, window.end}) {
        if (edge < engine_.now()) continue;
        engine_.schedule_at(edge, [this] {
          reprogram(Pool::SharedFs, engine_.now());
        });
      }
    }
  }
}

void DeployPipeline::start(int job, container::RuntimeKind runtime,
                           int image, int nodes, double now) {
  cancelled_.erase(job);  // fresh attempt (requeue reuses the job id)
  if (runtime == container::RuntimeKind::BareMetal) {
    on_ready_(job, now);
    return;
  }
  ++stats_.deploys;
  const std::uint64_t bytes = catalog_.bytes(image);
  const double fbytes = static_cast<double>(bytes);

  if (runtime == container::RuntimeKind::Docker) {
    // No shared cache to help: every node pulls the layers itself, then
    // unpacks into its local layer store.
    ++stats_.upstream_fetches;
    const double total = fbytes * static_cast<double>(nodes);
    const double unpack =
        gateway::conversion_model(runtime).seconds(bytes);
    engine_.schedule_at(
        now + config_.upstream_latency_s, [this, job, total, unpack] {
          if (cancelled_.count(job) != 0) return;
          begin_transfer(Pool::Upstream, total, job, engine_.now(),
                         [this, job, unpack](double done_at) {
                           engine_.schedule_at(
                               done_at + unpack,
                               [this, job] { ready(job, engine_.now()); });
                         });
        });
    return;
  }

  // Singularity / Shifter: converted-image path through the gateway.
  const std::string key = convert_key(catalog_.digest(image), runtime);
  const gateway::CacheTier tier = cache_.lookup(key, bytes);
  if (tier == gateway::CacheTier::Local) {
    stats_.bytes_transferred += bytes;
    engine_.schedule_at(now + fbytes / config_.local_read_bw,
                        [this, job] { ready(job, engine_.now()); });
    return;
  }
  if (tier == gateway::CacheTier::SharedFS) {
    begin_transfer(Pool::SharedFs, fbytes, job, now,
                   [this, job](double done_at) { ready(job, done_at); });
    return;
  }

  // Miss: the first job to miss creates the in-flight group and leads
  // the fetch; later misses join it.
  const auto [it, leader] = groups_.try_emplace(key);
  Group& group = it->second;
  group.waiters.push_back(job);
  group.runtime = runtime;
  group.bytes = bytes;
  if (!leader) {
    ++stats_.coalesced;
    return;
  }
  ++stats_.upstream_fetches;
  engine_.schedule_at(now + config_.upstream_latency_s, [this, key,
                                                         fbytes] {
    // Group-critical (owner -1): survives any single waiter's walltime
    // kill — the cache and the other waiters still want the image.
    begin_transfer(Pool::Upstream, fbytes, -1, engine_.now(),
                   [this, key](double done_at) {
                     enqueue_conversion(key, done_at);
                   });
  });
}

void DeployPipeline::cancel(int job) {
  cancelled_.insert(job);
  for (auto& [key, group] : groups_) {
    (void)key;
    auto& waiters = group.waiters;
    waiters.erase(std::remove(waiters.begin(), waiters.end(), job),
                  waiters.end());
  }
  bool touched_upstream = false;
  bool touched_shared = false;
  for (auto it = transfers_.begin(); it != transfers_.end();) {
    if (it->second.owner != job) {
      ++it;
      continue;
    }
    if (it->second.ev != kNoEvent) engine_.cancel(it->second.ev);
    (it->second.pool == Pool::Upstream ? touched_upstream : touched_shared) =
        true;
    it = transfers_.erase(it);
  }
  const double now = engine_.now();
  if (touched_upstream) reprogram(Pool::Upstream, now);
  if (touched_shared) reprogram(Pool::SharedFs, now);
}

const DeployStats& DeployPipeline::stats() {
  stats_.cache = cache_.stats();
  return stats_;
}

double DeployPipeline::pool_bandwidth(Pool pool,
                                      double now) const noexcept {
  if (pool == Pool::Upstream) return config_.upstream_bw;
  return config_.shared_read_bw / hazards_.brownout_factor_at(now);
}

void DeployPipeline::begin_transfer(Pool pool, double bytes, int owner,
                                    double now,
                                    std::function<void(double)> done) {
  stats_.bytes_transferred += static_cast<std::uint64_t>(bytes);
  if (!contention_) {
    // Uncontended control: dedicated bandwidth, fixed duration (brownouts
    // still stretch shared-FS work — they are a hazard, not contention).
    double duration = bytes / pool_bandwidth(pool, now);
    if (pool == Pool::SharedFs) duration = hazards_.stretched(now, duration);
    engine_.schedule_at(now + duration,
                        [this, done = std::move(done)] {
                          done(engine_.now());
                        });
    return;
  }
  const std::uint64_t id = next_transfer_++;
  Transfer transfer;
  transfer.pool = pool;
  transfer.remaining = bytes;
  transfer.last_settle = now;
  transfer.started = now;
  transfer.owner = owner;
  transfer.done = std::move(done);
  transfers_.emplace(id, std::move(transfer));
  stats_.max_active_transfers =
      std::max(stats_.max_active_transfers, transfers_.size());
  reprogram(pool, now);
}

void DeployPipeline::reprogram(Pool pool, double now) {
  std::size_t members = 0;
  for (const auto& [id, transfer] : transfers_) {
    (void)id;
    if (transfer.pool == pool) ++members;
  }
  if (members == 0) return;
  const double rate =
      pool_bandwidth(pool, now) / static_cast<double>(members);
  for (auto& [id, transfer] : transfers_) {
    if (transfer.pool != pool) continue;
    transfer.remaining = std::max(
        0.0, transfer.remaining -
                 transfer.rate * (now - transfer.last_settle));
    transfer.last_settle = now;
    transfer.rate = rate;
    if (transfer.ev != kNoEvent) engine_.cancel(transfer.ev);
    const std::uint64_t tid = id;
    transfer.ev = engine_.schedule_at(now + transfer.remaining / rate,
                                      [this, tid] { complete_transfer(tid); });
  }
}

void DeployPipeline::complete_transfer(std::uint64_t id) {
  const auto it = transfers_.find(id);
  if (it == transfers_.end()) return;  // cancelled after scheduling
  const double now = engine_.now();
  const Pool pool = it->second.pool;
  const double started = it->second.started;
  auto done = std::move(it->second.done);
  transfers_.erase(it);
  if (collector_ && pool == Pool::Upstream)
    collector_->span(0, "upstream-fetch", "gateway", started, now - started);
  reprogram(pool, now);
  done(now);
}

void DeployPipeline::enqueue_conversion(const std::string& digest,
                                        double now) {
  if (!contention_ || busy_workers_ < config_.workers) {
    run_conversion(digest, now);
    return;
  }
  conversion_queue_.push_back(digest);
  stats_.max_conversion_queue =
      std::max(stats_.max_conversion_queue, conversion_queue_.size());
}

void DeployPipeline::run_conversion(const std::string& digest, double now) {
  ++busy_workers_;
  const Group& group = groups_.at(digest);
  const double nominal =
      gateway::conversion_model(group.runtime).seconds(group.bytes);
  // Conversion reads/writes the shared filesystem, so brownouts stretch
  // it in contention mode; the control keeps the nominal cost.
  const double duration =
      contention_ ? hazards_.stretched(now, nominal) : nominal;
  engine_.schedule_at(now + duration, [this, digest, now] {
    finish_conversion(digest, now, engine_.now());
  });
}

void DeployPipeline::finish_conversion(const std::string& digest,
                                       double start, double now) {
  ++stats_.conversions;
  if (collector_)
    collector_->span(0, "convert", "deployment", start, now - start);
  Group group = std::move(groups_.at(digest));
  groups_.erase(digest);
  cache_.install(digest, group.bytes);
  const double fbytes = static_cast<double>(group.bytes);
  for (const int waiter : group.waiters) {
    if (cancelled_.count(waiter) != 0) continue;
    begin_transfer(Pool::SharedFs, fbytes, waiter, now,
                   [this, waiter](double done_at) {
                     ready(waiter, done_at);
                   });
  }
  --busy_workers_;
  if (contention_ && !conversion_queue_.empty()) {
    const std::string next = conversion_queue_.front();
    conversion_queue_.pop_front();
    run_conversion(next, now);
  }
}

void DeployPipeline::ready(int job, double now) {
  if (cancelled_.count(job) != 0) return;
  on_ready_(job, now);
}

}  // namespace hpcs::sched
