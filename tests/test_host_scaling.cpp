// Host-time scaling guard: quadrupling a cell's simulated horizon (or its
// job count) must cost about four times the host time, not sixteen.  A
// per-event cost that grows with history (re-sorting every observation,
// walking every record ever submitted or queued) turns the ratio
// quadratic long before any absolute timing would look wrong, so the
// bound is on the ratio.
//
// Host timings are noisy on a shared machine: each horizon takes the
// minimum of three runs, and the test is registered RUN_SERIAL so no
// other test competes for the cores while it measures.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>

#include "container/runtime.hpp"
#include "core/runner.hpp"
#include "gateway/chaos.hpp"
#include "hw/presets.hpp"
#include "sched/study.hpp"

namespace hg = hpcs::gateway;
namespace hc = hpcs::container;
namespace hs = hpcs::study;
namespace hsc = hpcs::sched;

namespace {

/// Minimum host seconds over \p reps runs of one hedge+breaker chaos cell
/// at \p horizon_s simulated seconds.
double min_cell_seconds(double horizon_s, int reps) {
  hg::ChaosGridSpec spec;
  spec.workload.horizon_s = horizon_s;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const hg::ChaosCellResult cell = hg::run_chaos_cell(
        spec, "brownout", "hedge+breaker", hc::RuntimeKind::Docker, false);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    // The cell must really hedge, or the ratio says nothing about the
    // hedge planner.
    EXPECT_GT(cell.stats.hedged_fetches, 0u);
    best = std::min(best, elapsed.count());
  }
  return best;
}

/// Minimum host seconds over \p reps observed runs of one bare-metal
/// Lenox cell (4 nodes x 28 ranks x 4 threads) of \p steps time steps.
double min_observed_run_seconds(int steps, int reps) {
  hs::RunnerOptions opts;
  opts.observe = true;
  const hs::ExperimentRunner runner(opts);
  const hs::Scenario scenario{.cluster = hpcs::hw::presets::lenox(),
                              .runtime = hc::RuntimeKind::BareMetal,
                              .nodes = 4,
                              .ranks = 28,
                              .threads = 4,
                              .time_steps = steps};
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const hs::RunResult result = runner.run(scenario);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    // The run must really emit its per-step spans, or the ratio says
    // nothing about the observed path.
    EXPECT_GT(result.trace.spans.size(), static_cast<std::size_t>(steps));
    best = std::min(best, elapsed.count());
  }
  return best;
}

/// Minimum host seconds over \p reps runs of one backfill-dedicated,
/// container-heavy, load-2 scheduler cell of \p jobs jobs, with moderate
/// crash faults and storm hazards.
double min_backfill_cell_seconds(int jobs, int reps) {
  hsc::SchedGridSpec spec;
  spec.faults = "moderate";
  spec.hazards = "storm";
  spec.workload.jobs = jobs;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const hsc::SchedCellResult cell = hsc::run_sched_cell(
        spec, "backfill-dedicated", "container-heavy", 2.0, false);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    // The queue must really back up behind blocked heads, or the ratio
    // says nothing about the backfill pass.
    EXPECT_GT(cell.stats.backfill_starts, static_cast<std::uint64_t>(jobs));
    best = std::min(best, elapsed.count());
  }
  return best;
}

}  // namespace

// Linear code gives a ratio of about 4; a planner that re-sorts its whole
// history on every query gives about 14.  8 catches that with 2x headroom.
TEST(HostScaling, HedgeBreakerChaosCellIsLinearInHorizon) {
  constexpr double kHorizonS = 3600.0;
  const double one_x = min_cell_seconds(kHorizonS, 3);
  const double four_x = min_cell_seconds(4.0 * kHorizonS, 3);
  ASSERT_GT(one_x, 0.0);
  RecordProperty("one_x_s", std::to_string(one_x));
  RecordProperty("four_x_s", std::to_string(four_x));
  EXPECT_LE(four_x / one_x, 8.0)
      << "1x " << one_x << " s, 4x " << four_x << " s";
}

// Observed steps lay their spans out back to back on one clock.  Carried
// forward, that clock gives a ratio of about 4-5 (the trace's canonical
// sort adds a log factor); a clock that re-sums every earlier step gives
// about 9.  8 separates the two.
TEST(HostScaling, ObservedRunnerIsLinearInSteps) {
  constexpr int kSteps = 10000;
  const double one_x = min_observed_run_seconds(kSteps, 3);
  const double four_x = min_observed_run_seconds(4 * kSteps, 3);
  ASSERT_GT(one_x, 0.0);
  RecordProperty("one_x_s", std::to_string(one_x));
  RecordProperty("four_x_s", std::to_string(four_x));
  EXPECT_LE(four_x / one_x, 8.0)
      << "1x " << one_x << " s, 4x " << four_x << " s";
}

// At load 2 the queue grows with the job count.  A backfill pass that
// reads its candidates off the queue's shape index gives a ratio of about
// 4-6; a pass that scans every queued job gives 8-12.  8 separates the
// two.
TEST(HostScaling, BackfillCellIsLinearInJobs) {
  constexpr int kJobs = 4000;
  const double one_x = min_backfill_cell_seconds(kJobs, 3);
  const double four_x = min_backfill_cell_seconds(4 * kJobs, 3);
  ASSERT_GT(one_x, 0.0);
  RecordProperty("one_x_s", std::to_string(one_x));
  RecordProperty("four_x_s", std::to_string(four_x));
  EXPECT_LE(four_x / one_x, 8.0)
      << "1x " << one_x << " s, 4x " << four_x << " s";
}
