// Agreement between each layer's stats and the metrics registry it fills.
// The gateway service, the batch scheduler and its deploy pipeline keep
// their counters and sample sets in their Stats structs; the registry an
// observed cell returns must say exactly the same thing: every counter a
// layer publishes is present and equal to its stats field, and every
// histogram holds the bits a RunningStats fed from the matching Samples
// (in insertion order) holds.  The cells are chosen so the rare paths
// fire: the storm/full/Docker chaos cell hedges, trips the breaker,
// serves stale and crashes workers; the sched cell runs with heavy faults
// and the storm hazards.  The runner's step books are its RunResult.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "container/runtime.hpp"
#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "gateway/chaos.hpp"
#include "hw/presets.hpp"
#include "obs/metrics.hpp"
#include "sched/study.hpp"
#include "sim/stats.hpp"

namespace hg = hpcs::gateway;
namespace hs = hpcs::sched;
namespace ho = hpcs::obs;
namespace hc = hpcs::container;

namespace {

using Counters = std::vector<std::pair<std::string, std::uint64_t>>;
using Histograms =
    std::vector<std::pair<std::string, const hpcs::sim::Samples*>>;

/// Every counter under \p prefix in \p metrics is listed in \p expected,
/// and each listed counter is present and equals its stats field.
void expect_counters(const ho::Metrics& metrics, const std::string& prefix,
                     const Counters& expected) {
  std::map<std::string, double> published;
  for (const auto& [name, value] : metrics.counters())
    if (name.rfind(prefix, 0) == 0) published.emplace(name, value);
  for (const auto& [name, field] : expected) {
    const auto it = published.find(name);
    ASSERT_NE(it, published.end()) << name << " not published";
    EXPECT_EQ(it->second, static_cast<double>(field)) << name;
    published.erase(it);
  }
  for (const auto& [name, value] : published)
    ADD_FAILURE() << name << " published (" << value
                  << ") but not checked against a stats field";
}

/// Each histogram equals a RunningStats fed from its Samples in order;
/// an empty sample set publishes no histogram.
void expect_histograms(const ho::Metrics& metrics,
                       const Histograms& expected) {
  for (const auto& [name, samples] : expected) {
    const auto h = metrics.histogram(name);
    if (samples->empty()) {
      EXPECT_FALSE(h.has_value()) << name << " published with no samples";
      continue;
    }
    ASSERT_TRUE(h.has_value()) << name << " not published";
    hpcs::sim::RunningStats want;
    for (const double v : samples->values()) want.add(v);
    EXPECT_EQ(h->count(), want.count()) << name;
    EXPECT_EQ(h->mean(), want.mean()) << name;
    EXPECT_EQ(h->min(), want.min()) << name;
    EXPECT_EQ(h->max(), want.max()) << name;
    EXPECT_EQ(h->sum(), want.sum()) << name;
    EXPECT_EQ(h->variance(), want.variance()) << name;
  }
}

/// The bench_chaos smoke cell's workload: large enough that every
/// defense fires under the storm preset.
hg::ChaosGridSpec storm_spec() {
  hg::ChaosGridSpec spec;
  spec.hazards = {"storm"};
  spec.mitigations = {"full"};
  spec.runtimes = {hc::RuntimeKind::Docker};
  spec.workload.base_rate_hz = 1.0;
  spec.workload.tenants = 200;
  spec.workload.horizon_s = 1200.0;
  return spec;
}

}  // namespace

TEST(MetricsAgreement, GatewayRegistryMatchesItsStats) {
  const hg::ChaosCellResult cell = hg::run_chaos_cell(
      storm_spec(), "storm", "full", hc::RuntimeKind::Docker, true);
  const hg::GatewayStats& s = cell.stats;
  // The cell must exercise the paths whose counters are checked.
  EXPECT_GT(s.hedged_fetches, 0u);
  EXPECT_GT(s.breaker_opens, 0u);
  EXPECT_GT(s.stale_served, 0u);
  EXPECT_GT(s.worker_crashes, 0u);
  EXPECT_GT(s.coalesced, 0u);

  expect_counters(cell.metrics, "gateway/",
                  {{"gateway/arrivals", s.arrivals},
                   {"gateway/hits_local", s.cache.local_hits},
                   {"gateway/hits_shared", s.cache.shared_hits},
                   {"gateway/misses", s.cache.misses},
                   {"gateway/failed", s.failed},
                   {"gateway/rejected_queue", s.rejected_queue},
                   {"gateway/rejected_admission", s.rejected_admission},
                   {"gateway/deadline_sheds", s.deadline_sheds},
                   {"gateway/breaker_fastfail", s.breaker_fastfail},
                   {"gateway/stale_served", s.stale_served},
                   {"gateway/coalesced", s.coalesced},
                   {"gateway/upstream_fetches", s.upstream_fetches},
                   {"gateway/upstream_retries", s.upstream_retries},
                   {"gateway/worker_crashes", s.worker_crashes},
                   {"gateway/hedged_fetches", s.hedged_fetches},
                   {"gateway/hedge_wins", s.hedge_wins}});
  expect_histograms(cell.metrics,
                    {{"gateway/start_latency_s", &s.start_latency},
                     {"gateway/queue_wait_s", &s.queue_wait}});
  EXPECT_EQ(cell.metrics.gauge_value("gateway/max_queue_depth"),
            static_cast<double>(s.max_queue_depth));
  EXPECT_EQ(cell.metrics.gauge_value("gateway/max_outstanding"),
            static_cast<double>(s.max_outstanding));
  EXPECT_EQ(cell.metrics.gauge_value("gateway/breaker_opens"),
            static_cast<double>(s.breaker_opens));
  EXPECT_EQ(cell.metrics.gauge_value("gateway/hedge_wasted_s"),
            s.hedge_wasted_s);
  EXPECT_EQ(cell.metrics.gauge_value("gateway/wasted_work_s"),
            s.wasted_work_s);
}

TEST(MetricsAgreement, SchedRegistryMatchesItsStats) {
  hs::SchedGridSpec spec;
  spec.faults = "heavy";
  spec.hazards = "storm";
  spec.workload.jobs = 150;
  const hs::SchedCellResult cell = hs::run_sched_cell(
      spec, "backfill-dedicated", "container-heavy", 2.0, true);
  const hs::SchedStats& s = cell.stats;
  const hs::DeployStats& d = s.deploy;
  EXPECT_GT(s.crashes, 0u);
  EXPECT_GT(s.requeues, 0u);
  EXPECT_GT(s.backfill_starts, 0u);
  EXPECT_GT(d.conversions, 0u);

  expect_counters(cell.metrics, "sched/",
                  {{"sched/submitted", s.submitted},
                   {"sched/completed", s.completed},
                   {"sched/failed", s.failed},
                   {"sched/shed", s.shed},
                   {"sched/timeout", s.timeouts},
                   {"sched/requeue", s.requeues},
                   {"sched/crash", s.crashes},
                   {"sched/backfill_start", s.backfill_starts},
                   {"sched/deploy/upstream_fetch", d.upstream_fetches},
                   {"sched/deploy/conversion", d.conversions},
                   {"sched/deploy/coalesced", d.coalesced},
                   {"sched/deploy/cache_local", d.cache.local_hits},
                   {"sched/deploy/cache_shared", d.cache.shared_hits}});
  expect_histograms(cell.metrics,
                    {{"sched/queue_wait_s", &s.queue_wait_s},
                     {"sched/deploy_s", &s.deploy_s},
                     {"sched/start_latency_s", &s.start_latency_s}});
  EXPECT_EQ(cell.metrics.gauge_value("sched/utilization"), s.utilization);
  EXPECT_EQ(cell.metrics.gauge_value("sched/makespan_s"), s.makespan_s);
  EXPECT_EQ(cell.metrics.gauge_value("sched/max_active_transfers"),
            static_cast<double>(d.max_active_transfers));
}

TEST(MetricsAgreement, RunnerStepBooksMatchItsResult) {
  hpcs::study::RunnerOptions options;
  options.observe = true;
  const hpcs::study::RunResult r = hpcs::study::ExperimentRunner(options).run(
      hpcs::study::Scenario{.cluster = hpcs::hw::presets::lenox(),
                            .runtime = hc::RuntimeKind::BareMetal,
                            .nodes = 4,
                            .ranks = 28,
                            .threads = 4,
                            .time_steps = 6});
  EXPECT_EQ(r.metrics.counter_value("runner/steps"),
            static_cast<double>(r.step_times.count()));
  expect_histograms(r.metrics, {{"runner/step_time_s", &r.step_times}});
}
