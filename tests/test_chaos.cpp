// The correlated-hazard and mitigation layer: HazardSpec presets and
// validation, schedule determinism and the zero-draw-off contract,
// brownout work-stretching math, rack-burst fan-out, the circuit-breaker
// state machine, hedge bookkeeping, stale serving from ghost entries,
// and the chaos scorecard grid's --jobs bit-identity and headline gate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/hazard.hpp"
#include "fault/schedule.hpp"
#include "fault/spec.hpp"
#include "gateway/breaker.hpp"
#include "gateway/cache.hpp"
#include "gateway/chaos.hpp"
#include "gateway/config.hpp"
#include "gateway/hedge.hpp"
#include "gateway/service.hpp"
#include "gateway/workload.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

#include "golden.hpp"

namespace hf = hpcs::fault;
namespace hg = hpcs::gateway;
namespace hc = hpcs::container;
namespace hs = hpcs::sim;

namespace {

std::string thrown_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

}  // namespace

// --- HazardSpec ------------------------------------------------------------

TEST(HazardSpec, DefaultIsDisabledAndValid) {
  const hf::HazardSpec spec;
  EXPECT_FALSE(spec.enabled);
  EXPECT_EQ(spec.label, "hazard-free");
  EXPECT_NO_THROW(spec.validate());
}

TEST(HazardSpec, PresetsRoundTripThroughValidate) {
  for (const char* name :
       {"rack-burst", "brownout", "gray", "partition", "storm"}) {
    const auto spec = hf::HazardSpec::preset(name);
    EXPECT_TRUE(spec.enabled) << name;
    EXPECT_EQ(spec.name(), name);
    EXPECT_NO_THROW(spec.validate()) << name;
    // The label is itself a preset name: the round trip must close.
    EXPECT_EQ(hf::HazardSpec::preset(spec.name()).name(), spec.name());
  }
  EXPECT_FALSE(hf::HazardSpec::preset("none").enabled);
  EXPECT_FALSE(hf::HazardSpec::preset("hazard-free").enabled);
}

TEST(HazardSpec, UnknownPresetNamesTheCandidates) {
  EXPECT_EQ(thrown_message([] { (void)hf::HazardSpec::preset("quake"); }),
            "unknown hazard preset 'quake' (none | rack-burst | brownout | "
            "gray | partition | storm)");
}

TEST(HazardSpec, ValidateRejectsOutOfRangeFields) {
  auto bad = hf::HazardSpec::brownout();
  bad.brownout_factor = 0.5;
  EXPECT_EQ(thrown_message([&] { bad.validate(); }),
            "HazardSpec: brownout_factor < 1");
  auto bad_rate = hf::HazardSpec::gray();
  bad_rate.gray_fault_rate = 1.0;
  EXPECT_EQ(thrown_message([&] { bad_rate.validate(); }),
            "HazardSpec: gray_fault_rate outside [0,1)");
  auto bad_rack = hf::HazardSpec::rack_burst();
  bad_rack.rack_size = 0;
  EXPECT_EQ(thrown_message([&] { bad_rack.validate(); }),
            "HazardSpec: rack_size < 1");
  auto bad_duration = hf::HazardSpec::partition();
  bad_duration.partition_duration_s = 0.0;
  EXPECT_EQ(thrown_message([&] { bad_duration.validate(); }),
            "HazardSpec: partition_duration_s <= 0");
}

// --- HazardInjector / HazardSchedule ---------------------------------------

TEST(HazardInjector, DisabledSpecDrawsNothing) {
  const hf::HazardInjector inert;
  EXPECT_FALSE(inert.enabled());
  const auto schedule = inert.schedule(86400.0, 64);
  EXPECT_FALSE(schedule.active());
  EXPECT_TRUE(schedule.brownouts.empty());
  EXPECT_TRUE(schedule.bursts.empty());
}

TEST(HazardInjector, SchedulesAreSeedDeterministic) {
  const hf::HazardInjector a(hf::HazardSpec::storm(), 7);
  const hf::HazardInjector b(hf::HazardSpec::storm(), 7);
  const auto sa = a.schedule(20000.0, 32);
  const auto sb = b.schedule(20000.0, 32);
  EXPECT_TRUE(sa.active());
  ASSERT_EQ(sa.brownouts.size(), sb.brownouts.size());
  for (std::size_t i = 0; i < sa.brownouts.size(); ++i) {
    EXPECT_EQ(sa.brownouts[i].start, sb.brownouts[i].start);
    EXPECT_EQ(sa.brownouts[i].end, sb.brownouts[i].end);
  }
  ASSERT_EQ(sa.bursts.size(), sb.bursts.size());
  for (std::size_t i = 0; i < sa.bursts.size(); ++i) {
    EXPECT_EQ(sa.bursts[i].time, sb.bursts[i].time);
    EXPECT_EQ(sa.bursts[i].first_node, sb.bursts[i].first_node);
  }

  // A different seed draws a different storm.
  const hf::HazardInjector c(hf::HazardSpec::storm(), 8);
  const auto sc = c.schedule(20000.0, 32);
  ASSERT_FALSE(sa.brownouts.empty());
  ASSERT_FALSE(sc.brownouts.empty());
  EXPECT_NE(sa.brownouts[0].start, sc.brownouts[0].start);
}

TEST(HazardSchedule, StretchedAppliesWindowFactorToCoveredWork) {
  hf::HazardSchedule schedule;
  EXPECT_EQ(schedule.stretched(50.0, 10.0), 10.0);  // no windows: identity
  schedule.brownouts.push_back(hf::HazardWindow{100.0, 200.0, 4.0, 0.0});
  // Entirely before the window: untouched.
  EXPECT_DOUBLE_EQ(schedule.stretched(0.0, 10.0), 10.0);
  // Entirely inside: work advances at 1/4 speed.
  EXPECT_DOUBLE_EQ(schedule.stretched(100.0, 10.0), 40.0);
  // Straddling the end: 10 wall seconds of window do 2.5s of the work,
  // the remaining 7.5s run at full speed after the window lifts.
  EXPECT_DOUBLE_EQ(schedule.stretched(190.0, 10.0), 17.5);
  // Entering the window mid-way: 5s clean, then 5s of work takes 20s.
  EXPECT_DOUBLE_EQ(schedule.stretched(95.0, 10.0), 25.0);
  EXPECT_DOUBLE_EQ(schedule.brownout_factor_at(150.0), 4.0);
  EXPECT_DOUBLE_EQ(schedule.brownout_factor_at(250.0), 1.0);
}

TEST(HazardSchedule, BurstCrashesFanOutOverTheRack) {
  hf::HazardSchedule schedule;
  schedule.bursts.push_back(hf::RackBurst{500.0, 4, 4});
  const auto crashes = schedule.burst_crashes(6);
  // Nodes 4 and 5 exist; 6 and 7 fall outside the job.
  ASSERT_EQ(crashes.size(), 2u);
  EXPECT_EQ(crashes[0].node, 4);
  EXPECT_EQ(crashes[1].node, 5);
  EXPECT_EQ(crashes[0].time, 500.0);
  EXPECT_EQ(crashes[0].kind, hf::FaultKind::NodeCrash);
}

// --- CircuitBreaker --------------------------------------------------------

TEST(CircuitBreaker, TripsAfterThresholdAndProbesHalfOpen) {
  hg::BreakerPolicy policy;
  policy.enabled = true;
  policy.failure_threshold = 3;
  policy.open_duration_s = 60.0;
  hg::CircuitBreaker breaker(policy);
  EXPECT_EQ(breaker.state(0.0), hg::CircuitBreaker::State::Closed);
  EXPECT_TRUE(breaker.allow(0.0));
  breaker.on_failure(1.0);
  breaker.on_failure(2.0);
  EXPECT_EQ(breaker.state(2.5), hg::CircuitBreaker::State::Closed);
  breaker.on_failure(3.0);  // third consecutive: trip
  EXPECT_EQ(breaker.state(3.5), hg::CircuitBreaker::State::Open);
  EXPECT_FALSE(breaker.allow(10.0));
  EXPECT_EQ(breaker.opens(), 1u);
  // After the open window: half-open grants exactly one probe.
  EXPECT_EQ(breaker.state(63.5), hg::CircuitBreaker::State::HalfOpen);
  EXPECT_TRUE(breaker.allow(63.5));
  EXPECT_FALSE(breaker.allow(63.6));  // probe already in flight
  breaker.on_success();
  EXPECT_EQ(breaker.state(64.0), hg::CircuitBreaker::State::Closed);
  EXPECT_TRUE(breaker.allow(64.0));
}

TEST(CircuitBreaker, FailedProbeReopensTheWindow) {
  hg::BreakerPolicy policy;
  policy.enabled = true;
  policy.failure_threshold = 1;
  policy.open_duration_s = 30.0;
  hg::CircuitBreaker breaker(policy);
  breaker.on_failure(0.0);
  EXPECT_EQ(breaker.state(10.0), hg::CircuitBreaker::State::Open);
  ASSERT_TRUE(breaker.allow(31.0));  // half-open probe
  breaker.on_failure(31.0);          // probe fails: back to open
  EXPECT_EQ(breaker.state(40.0), hg::CircuitBreaker::State::Open);
  EXPECT_EQ(breaker.opens(), 2u);
  EXPECT_FALSE(breaker.allow(45.0));
  EXPECT_EQ(hg::to_string(breaker.state(40.0)), "open");
  EXPECT_EQ(hg::to_string(hg::CircuitBreaker::State::HalfOpen), "half-open");
}

TEST(CircuitBreaker, DisabledBreakerNeverBlocks) {
  hg::CircuitBreaker breaker;
  for (int i = 0; i < 10; ++i) breaker.on_failure(static_cast<double>(i));
  EXPECT_EQ(breaker.state(100.0), hg::CircuitBreaker::State::Closed);
  EXPECT_TRUE(breaker.allow(100.0));
  EXPECT_EQ(breaker.opens(), 0u);
}

// --- Hedging ---------------------------------------------------------------

TEST(HedgePlanner, ReadyOnlyAfterMinSamplesAndClampsDelay) {
  hg::HedgePolicy policy;
  policy.enabled = true;
  policy.quantile = 0.5;
  policy.min_samples = 4;
  policy.min_delay_s = 2.0;
  hg::HedgePlanner planner(policy);
  EXPECT_FALSE(planner.ready());
  for (double s : {1.0, 1.0, 1.0, 1.0}) planner.observe(s);
  ASSERT_TRUE(planner.ready());
  // Median 1.0 < min_delay 2.0: the floor wins.
  EXPECT_DOUBLE_EQ(planner.delay(), 2.0);
  for (double s : {9.0, 9.0, 9.0, 9.0}) planner.observe(s);
  EXPECT_GT(planner.delay(), 2.0);

  hg::HedgePlanner disabled;
  for (int i = 0; i < 100; ++i) disabled.observe(1.0);
  EXPECT_FALSE(disabled.ready());
  EXPECT_EQ(disabled.observed(), 0u);
}

// The planner keeps its own sorted durations; after every observe() its
// delay must be bit-equal to the quantile a fresh sim::Samples computes
// from the same values (duplicates and ties included).
TEST(HedgePlanner, DelayIsBitEqualToSamplesQuantileAfterEveryObserve) {
  for (const double q : {0.5, 0.9, 0.95}) {
    hg::HedgePolicy policy;
    policy.enabled = true;
    policy.quantile = q;
    policy.min_samples = 1;
    policy.min_delay_s = 0.25;
    hg::HedgePlanner planner(policy);
    hs::Samples reference;
    hs::Rng rng(29);
    for (int i = 0; i < 600; ++i) {
      // Coarse buckets give many exact ties; every tenth value repeats
      // the previous one, and some fall below the delay floor.
      const double x =
          i % 10 == 9 && reference.count() > 0
              ? reference.values().back()
              : std::floor(rng.lognormal_median(1.5, 0.8) * 8.0) / 8.0;
      planner.observe(x);
      reference.add(x);
      hs::Samples fresh;
      for (const double v : reference.values()) fresh.add(v);
      ASSERT_EQ(planner.delay(),
                std::max(policy.min_delay_s, fresh.quantile(q)))
          << "q=" << q << " after " << i + 1 << " observations";
    }
    EXPECT_EQ(planner.observed(), reference.count());
  }
}

TEST(HedgeOutcome, ResolveCoversAllRaceOutcomes) {
  // Primary finishes before the hedge would launch: no hedge at all.
  const auto fast = hg::resolve_hedge(3.0, true, 5.0, 2.0, true);
  EXPECT_FALSE(fast.hedge_launched);
  EXPECT_DOUBLE_EQ(fast.duration, 3.0);
  EXPECT_FALSE(fast.failed);
  EXPECT_DOUBLE_EQ(fast.wasted_s, 0.0);

  // Primary wins the race: hedge work after its launch is wasted.
  const auto primary_wins = hg::resolve_hedge(8.0, true, 5.0, 10.0, true);
  EXPECT_TRUE(primary_wins.hedge_launched);
  EXPECT_FALSE(primary_wins.hedge_won);
  EXPECT_DOUBLE_EQ(primary_wins.duration, 8.0);
  EXPECT_DOUBLE_EQ(primary_wins.wasted_s, 3.0);  // hedge ran [5, 8)

  // Hedge wins: duration is delay + hedge fetch; primary spend is wasted.
  const auto hedge_wins = hg::resolve_hedge(30.0, true, 5.0, 4.0, true);
  EXPECT_TRUE(hedge_wins.hedge_won);
  EXPECT_DOUBLE_EQ(hedge_wins.duration, 9.0);
  EXPECT_FALSE(hedge_wins.failed);
  EXPECT_DOUBLE_EQ(hedge_wins.wasted_s, 9.0);  // primary ran [0, 9)

  // Hedge rescues a failed primary.
  const auto rescue = hg::resolve_hedge(12.0, false, 5.0, 4.0, true);
  EXPECT_TRUE(rescue.hedge_won);
  EXPECT_FALSE(rescue.failed);
  EXPECT_DOUBLE_EQ(rescue.duration, 9.0);

  // Both fail: the request fails at the later of the two.
  const auto both = hg::resolve_hedge(12.0, false, 5.0, 20.0, false);
  EXPECT_TRUE(both.failed);
  EXPECT_TRUE(both.hedge_launched);
  EXPECT_DOUBLE_EQ(both.duration, 25.0);
  EXPECT_DOUBLE_EQ(both.wasted_s, 20.0);
}

// --- Stale serving ---------------------------------------------------------

TEST(TieredCache, GhostEntriesBackStaleServing) {
  hg::TieredCache cache(100, 200);
  cache.install("a", 80);
  cache.install("b", 80);
  cache.install("c", 80);  // evicts "a" from the shared tier
  EXPECT_FALSE(cache.shared().contains("a"));
  EXPECT_TRUE(cache.lookup_stale("a"));
  EXPECT_FALSE(cache.lookup_stale("zz"));
  EXPECT_EQ(cache.stats().stale_hits, 1u);
  // Reinstalling scrubs the ghost: the entry is fresh again.
  cache.install("a", 80);
  EXPECT_FALSE(cache.lookup_stale("a"));
  EXPECT_GE(cache.ghost_count(), 1u);  // "b" was evicted by the reinstall
}

// --- Mitigation bundles ----------------------------------------------------

TEST(MitigationSpec, PresetsComposeTheDefenses) {
  const auto retry_only = hg::MitigationSpec::preset("retry-only");
  EXPECT_FALSE(retry_only.breaker.enabled);
  EXPECT_FALSE(retry_only.hedge.enabled);
  EXPECT_FALSE(retry_only.deadline.enabled);
  EXPECT_FALSE(retry_only.serve_stale);

  const auto full = hg::MitigationSpec::preset("full");
  EXPECT_TRUE(full.breaker.enabled);
  EXPECT_TRUE(full.hedge.enabled);
  EXPECT_TRUE(full.deadline.enabled);
  EXPECT_TRUE(full.serve_stale);

  hg::GatewayConfig config;
  hg::MitigationSpec::preset("hedge+breaker").apply(config);
  EXPECT_TRUE(config.breaker.enabled);
  EXPECT_TRUE(config.hedge.enabled);
  EXPECT_FALSE(config.deadline.enabled);
  EXPECT_TRUE(config.serve_stale);
  EXPECT_NO_THROW(config.validate());

  EXPECT_EQ(
      thrown_message([] { (void)hg::MitigationSpec::preset("prayers"); }),
      "unknown mitigation preset 'prayers' (retry-only | breaker | hedge | "
      "hedge+breaker | full)");
}

// --- The chaos grid --------------------------------------------------------

namespace {

hg::ChaosGridSpec smoke_chaos() {
  hg::ChaosGridSpec spec;
  spec.hazards = {"none", "brownout", "storm"};
  spec.mitigations = {"retry-only", "hedge+breaker", "full"};
  spec.runtimes = {hc::RuntimeKind::Docker};
  spec.workload.base_rate_hz = 1.0;
  spec.workload.tenants = 20;
  spec.workload.image_bytes_min = 64ull << 20;
  spec.workload.image_bytes_max = 512ull << 20;
  spec.workload.horizon_s = 400.0;
  spec.config.local_cache_bytes = 1ull << 30;
  spec.config.shared_cache_bytes = 4ull << 30;
  spec.load = 1.2;
  return spec;
}

std::string chaos_csv(const hg::ChaosGridResult& grid) {
  std::ostringstream out;
  grid.write_csv(out);
  return out.str();
}

}  // namespace

TEST(ChaosCell, AccountingInvariantHoldsUnderStormWithFullDefenses) {
  const auto cell = hg::run_chaos_cell(smoke_chaos(), "storm", "full",
                                       hc::RuntimeKind::Docker, false);
  const hg::GatewayStats& s = cell.stats;
  EXPECT_GT(s.arrivals, 0u);
  EXPECT_EQ(s.completed + s.failed + s.rejected_queue + s.rejected_admission +
                s.deadline_sheds + s.breaker_fastfail,
            s.arrivals);
  EXPECT_LE(s.stale_served, s.completed);
  EXPECT_LE(s.hedge_wins, s.hedged_fetches);
}

TEST(ChaosCell, HazardFreeCellMatchesServiceBuiltWithoutHazards) {
  // The "none" preset must be indistinguishable from a GatewayService that
  // never heard of hazards (default inert injector) — the zero-cost-off
  // contract, checked by rebuilding the cell by hand.
  const auto spec = smoke_chaos();
  const auto cell = hg::run_chaos_cell(spec, "none", "retry-only",
                                       hc::RuntimeKind::Docker, false);
  EXPECT_EQ(cell.stats.hedged_fetches, 0u);
  EXPECT_EQ(cell.stats.breaker_opens, 0u);
  EXPECT_EQ(cell.stats.stale_served, 0u);
  EXPECT_EQ(cell.stats.deadline_sheds, 0u);

  hg::GatewayConfig config = spec.config;
  hg::MitigationSpec::preset("retry-only").apply(config);
  hg::WorkloadSpec workload = spec.workload;
  workload.load = spec.load;
  // Replicate the cell's churn-derived catalog sizing and name-derived
  // seed (the documented conventions, re-implemented independently).
  const double mean_bytes = std::exp(
      0.5 * (std::log(static_cast<double>(workload.image_bytes_min)) +
             std::log(static_cast<double>(workload.image_bytes_max))));
  workload.catalog_images = std::max(
      2, static_cast<int>(std::llround(
             spec.churn * static_cast<double>(config.shared_cache_bytes) /
             mean_bytes)));
  const std::string seed_key =
      "none/" + std::string(hc::to_string(hc::RuntimeKind::Docker));
  std::uint64_t seed_state = spec.seed ^ hs::hash64(seed_key);
  const std::uint64_t seed = hs::splitmix64(seed_state);
  const hs::Rng root{seed};
  const hg::ImageCatalog catalog(workload, root);
  hg::ArrivalProcess arrivals(workload, root);
  hf::FaultInjector injector(hf::FaultSpec::preset(spec.faults), seed);
  hg::GatewayService service(config, hc::RuntimeKind::Docker, catalog,
                             std::move(injector), workload.horizon_s);
  while (const auto request = arrivals.next()) service.submit(*request);
  const hg::GatewayStats& manual = service.finish();

  EXPECT_EQ(manual.arrivals, cell.stats.arrivals);
  EXPECT_EQ(manual.completed, cell.stats.completed);
  EXPECT_EQ(manual.failed, cell.stats.failed);
  EXPECT_EQ(manual.upstream_retries, cell.stats.upstream_retries);
  EXPECT_EQ(manual.worker_crashes, cell.stats.worker_crashes);
  EXPECT_EQ(manual.start_latency.values(), cell.stats.start_latency.values());
}

TEST(ChaosGrid, CsvAndTraceAreBitIdenticalAcrossJobs) {
  const auto spec = smoke_chaos();
  const auto serial = hg::run_chaos_grid(spec, 1, true);
  const auto parallel = hg::run_chaos_grid(spec, 4, true);
  ASSERT_EQ(serial.cells.size(), 9u);
  EXPECT_EQ(chaos_csv(serial), chaos_csv(parallel));
  std::ostringstream trace1, trace4;
  serial.write_chrome_trace(trace1);
  parallel.write_chrome_trace(trace4);
  EXPECT_EQ(trace1.str(), trace4.str());
  // Observing must not perturb the scorecard (zero-cost-off contract).
  const auto blind = hg::run_chaos_grid(spec, 1, false);
  EXPECT_EQ(chaos_csv(serial), chaos_csv(blind));
}

// Pins the common-random-numbers seeds and the scorecard bytes, which
// jobs 1-vs-4 identity alone cannot.
TEST(ChaosGolden, ScorecardCsvMatchesReference) {
  const auto grid = hg::run_chaos_grid(smoke_chaos(), 2, false);
  hpcs::test_support::expect_matches_golden("chaos_grid.csv",
                                            chaos_csv(grid));
}

TEST(ChaosGrid, MitigationBundlesShareTheStormPerHazardRuntime) {
  // Common random numbers: retry-only and hedge+breaker face identical
  // arrivals for a given (hazard, runtime), so scorecard deltas isolate
  // the defenses rather than cross-seed noise.
  const auto grid = hg::run_chaos_grid(smoke_chaos(), 2, false);
  const hg::ChaosCellResult* base = nullptr;
  const hg::ChaosCellResult* hedged = nullptr;
  for (const auto& cell : grid.cells) {
    if (cell.hazard != "brownout") continue;
    if (cell.mitigation == "retry-only") base = &cell;
    if (cell.mitigation == "hedge+breaker") hedged = &cell;
  }
  ASSERT_NE(base, nullptr);
  ASSERT_NE(hedged, nullptr);
  EXPECT_EQ(base->stats.arrivals, hedged->stats.arrivals);
}

TEST(ChaosGrid, ValidateRejectsUnknownAxisEntries) {
  auto spec = smoke_chaos();
  spec.hazards.push_back("quake");
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  auto no_mitigations = smoke_chaos();
  no_mitigations.mitigations.clear();
  EXPECT_THROW(no_mitigations.validate(), std::invalid_argument);
}

TEST(ChaosHeadline, FlagsARegressionAndPassesAnImprovement) {
  hg::ChaosGridResult grid;
  hg::ChaosCellResult base;
  base.key = "brownout/retry-only/docker";
  base.hazard = "brownout";
  base.mitigation = "retry-only";
  base.runtime = hc::RuntimeKind::Docker;
  base.stats.arrivals = 100;
  base.stats.completed = 98;
  for (int i = 0; i < 100; ++i)
    base.stats.start_latency.add(static_cast<double>(i));
  hg::ChaosCellResult better = base;
  better.key = "brownout/hedge+breaker/docker";
  better.mitigation = "hedge+breaker";
  better.stats.start_latency = {};
  for (int i = 0; i < 100; ++i)
    better.stats.start_latency.add(static_cast<double>(i) / 2.0);
  grid.cells = {base, better};
  EXPECT_TRUE(hg::check_chaos_headline(grid).ok);

  // Hedging that loses completions fails the gate even with better p99.
  grid.cells[1].stats.completed = 90;
  const auto verdict = hg::check_chaos_headline(grid);
  EXPECT_FALSE(verdict.ok);
  ASSERT_EQ(verdict.violations.size(), 1u);
  EXPECT_NE(verdict.violations[0].find("completion"), std::string::npos);
}
