// Host-time scaling guard: quadrupling a cell's simulated horizon must
// cost about four times the host time, not sixteen.  A per-event cost
// that grows with history (re-sorting every observation, walking every
// record ever submitted) turns the ratio quadratic long before any
// absolute timing would look wrong, so the bound is on the ratio.
//
// Host timings are noisy on a shared machine: each horizon takes the
// minimum of three runs, and the test is registered RUN_SERIAL so no
// other test competes for the cores while it measures.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>

#include "container/runtime.hpp"
#include "gateway/chaos.hpp"

namespace hg = hpcs::gateway;
namespace hc = hpcs::container;

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
