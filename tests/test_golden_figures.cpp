// Golden-figure regression suite: tiny replicas of the three paper-figure
// pipelines (Fig. 1 runtimes, Fig. 2 portability, Fig. 3 scalability) run
// through the real CampaignRunner and are diffed *byte-exactly* against
// reference CSVs under tests/golden/.  Any change to the physics, the
// campaign engine, the seed derivation, or the CSV formatting trips these
// tests — including an observability regression where merely enabling the
// collector would perturb results.
//
// Regenerating the references (after an *intentional* model change):
//
//   HPCS_UPDATE_GOLDEN=1 ./build/tests/test_golden_figures
//   # or: cmake --build build --target update-golden
//
// then review the diff of tests/golden/*.csv like any other code change.

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "hw/presets.hpp"

#include "golden.hpp"

namespace hs = hpcs::study;
namespace hc = hpcs::container;
namespace hw = hpcs::hw;
using hpcs::test_support::expect_matches_golden;
using hpcs::test_support::update_golden_mode;

namespace {

std::string figure_csv(const hs::Figure& fig) {
  std::ostringstream out;
  fig.write_csv(out);
  return out.str();
}

hs::Series metric_series(
    const hs::CampaignResult& res, std::size_t variant,
    const std::function<double(const hs::RunResult&)>& metric) {
  return res.series(0, variant, 0, metric);
}

// --- Tiny figure pipelines -------------------------------------------------
// Same clusters, variants, display names, and derived series as the bench
// programs; only the sweep sizes and step counts are shrunk so the suite
// stays fast.

hs::CampaignResult run_fig1(const hs::RunnerOptions& ropts = {}) {
  hs::CampaignSpec spec;
  spec.name = "golden-fig1";
  spec.cluster(hw::presets::lenox())
      .variant(hc::RuntimeKind::BareMetal, hc::BuildMode::SystemSpecific,
               "Bare-metal")
      .variant(hc::RuntimeKind::Singularity, hc::BuildMode::SystemSpecific,
               "Singularity")
      .variant(hc::RuntimeKind::Shifter, hc::BuildMode::SystemSpecific,
               "Shifter")
      .variant(hc::RuntimeKind::Docker, hc::BuildMode::SystemSpecific,
               "Docker")
      .nodes({4})
      .geometry(28, 4)
      .geometry(56, 2)
      .geometry(112, 1)
      .steps(3);
  return hs::CampaignRunner(
             hs::CampaignOptions{.jobs = 2, .runner = ropts})
      .run(spec);
}

hs::Figure fig1_times(const hs::CampaignResult& res) {
  hs::Figure fig;
  fig.title = "Fig. 1 (golden) — artery CFD elapsed time in Lenox";
  fig.x_label = "ranks x threads";
  fig.y_label = "avg time per simulated campaign [s] (3 time steps)";
  for (std::size_t v = 0; v < res.axes[1]; ++v)
    fig.series.push_back(metric_series(
        res, v, [](const hs::RunResult& r) { return r.total_time; }));
  return fig;
}

hs::Figure fig1_comm(const hs::CampaignResult& res) {
  hs::Figure fig;
  fig.title = "Fig. 1 detail (golden) — communication fraction";
  fig.x_label = "ranks x threads";
  fig.y_label = "communication fraction";
  for (std::size_t v = 0; v < res.axes[1]; ++v)
    fig.series.push_back(metric_series(
        res, v, [](const hs::RunResult& r) { return r.comm_fraction; }));
  return fig;
}

hs::CampaignResult run_fig2(const hs::RunnerOptions& ropts = {}) {
  hs::CampaignSpec spec;
  spec.name = "golden-fig2";
  spec.cluster(hw::presets::cte_power())
      .variant(hc::RuntimeKind::BareMetal, hc::BuildMode::SystemSpecific,
               "Bare-metal")
      .variant(hc::RuntimeKind::Singularity, hc::BuildMode::SystemSpecific,
               "Singularity system-specific")
      .variant(hc::RuntimeKind::Singularity, hc::BuildMode::SelfContained,
               "Singularity self-contained")
      .nodes({2, 4, 8})
      .steps(3);
  return hs::CampaignRunner(
             hs::CampaignOptions{.jobs = 2, .runner = ropts})
      .run(spec);
}

hs::Figure fig2_times(const hs::CampaignResult& res) {
  hs::Figure fig;
  fig.title = "Fig. 2 (golden) — artery CFD elapsed time in CTE-POWER";
  fig.x_label = "nodes";
  fig.y_label = "avg time per simulated campaign [s] (3 time steps)";
  for (std::size_t v = 0; v < res.axes[1]; ++v)
    fig.series.push_back(metric_series(
        res, v, [](const hs::RunResult& r) { return r.total_time; }));
  return fig;
}

hs::Figure fig2_slowdown(const hs::Figure& times) {
  hs::Figure ratio;
  ratio.title = "Fig. 2 detail (golden) — self-contained slowdown";
  ratio.x_label = "nodes";
  ratio.y_label = "time ratio";
  hs::Series rs{.name = "self-contained / bare-metal"};
  const auto& bm = times.series[0];
  const auto& self = times.series[2];
  for (std::size_t i = 0; i < bm.x.size(); ++i)
    rs.add(bm.x[i], self.y[i] / bm.y[i]);
  ratio.series.push_back(std::move(rs));
  return ratio;
}

hs::CampaignResult run_fig3(const hs::RunnerOptions& ropts = {}) {
  hs::CampaignSpec spec;
  spec.name = "golden-fig3";
  spec.cluster(hw::presets::marenostrum4())
      .variant(hc::RuntimeKind::BareMetal, hc::BuildMode::SystemSpecific,
               "Bare-metal")
      .variant(hc::RuntimeKind::Singularity, hc::BuildMode::SystemSpecific,
               "Singularity system-specific")
      .variant(hc::RuntimeKind::Singularity, hc::BuildMode::SelfContained,
               "Singularity self-contained")
      .app(hs::AppCase::ArteryFsi)
      .nodes({4, 8, 16})
      .steps(2);
  return hs::CampaignRunner(
             hs::CampaignOptions{.jobs = 2, .runner = ropts})
      .run(spec);
}

hs::Figure fig3_times(const hs::CampaignResult& res) {
  hs::Figure fig;
  fig.title = "Fig. 3 (golden, times) — artery FSI on MareNostrum4";
  fig.x_label = "nodes";
  fig.y_label = "avg time per simulated campaign [s] (2 time steps)";
  for (std::size_t v = 0; v < res.axes[1]; ++v)
    fig.series.push_back(metric_series(
        res, v, [](const hs::RunResult& r) { return r.total_time; }));
  return fig;
}

hs::Figure fig3_speedup(const hs::Figure& times) {
  hs::Figure fig;
  fig.title = "Fig. 3 (golden) — artery FSI scalability in MareNostrum4";
  fig.x_label = "nodes";
  fig.y_label = "speedup vs the 4-node run (ideal = nodes/4)";
  for (const auto& tser : times.series)
    fig.series.push_back(
        hs::speedup_series(tser.name, tser.x, tser.y, tser.y.front(), 1.0));
  hs::Series ideal{.name = "Ideal"};
  for (int nodes : {4, 8, 16})
    ideal.add(std::to_string(nodes), static_cast<double>(nodes) / 4.0);
  fig.series.push_back(std::move(ideal));
  return fig;
}

}  // namespace

TEST(GoldenFigures, Fig1LenoxRuntimes) {
  const auto res = run_fig1();
  ASSERT_EQ(res.failed, 0u) << "fig1 campaign had failed cells";
  expect_matches_golden("fig1_times.csv", figure_csv(fig1_times(res)));
  expect_matches_golden("fig1_comm_fraction.csv",
                        figure_csv(fig1_comm(res)));
}

TEST(GoldenFigures, Fig2CtePowerPortability) {
  const auto res = run_fig2();
  ASSERT_EQ(res.failed, 0u) << "fig2 campaign had failed cells";
  const auto times = fig2_times(res);
  expect_matches_golden("fig2_times.csv", figure_csv(times));
  expect_matches_golden("fig2_slowdown.csv",
                        figure_csv(fig2_slowdown(times)));
}

TEST(GoldenFigures, Fig3Mn4FsiScalability) {
  const auto res = run_fig3();
  ASSERT_EQ(res.failed, 0u) << "fig3 campaign had failed cells";
  const auto times = fig3_times(res);
  expect_matches_golden("fig3_times.csv", figure_csv(times));
  expect_matches_golden("fig3_speedup.csv",
                        figure_csv(fig3_speedup(times)));
}

// Enabling the observability collector must not perturb a single figure
// byte: the collector only *reads* simulated state, and all its time comes
// from the simulation clock, never from the host.
TEST(GoldenFigures, ObservabilityDoesNotPerturbFigures) {
  if (update_golden_mode()) GTEST_SKIP() << "not a golden-producing test";
  hs::RunnerOptions observed;
  observed.observe = true;
  const auto res = run_fig2(observed);
  ASSERT_EQ(res.failed, 0u);
  const auto times = fig2_times(res);
  expect_matches_golden("fig2_times.csv", figure_csv(times));
  expect_matches_golden("fig2_slowdown.csv",
                        figure_csv(fig2_slowdown(times)));
  for (const auto& cell : res.cells)
    EXPECT_FALSE(cell.result.trace.spans.empty())
        << cell.key << ": observe=true produced no spans";
}

// The references themselves are jobs-invariant: rerunning fig1 serially
// must reproduce the jobs=2 bytes exactly.
TEST(GoldenFigures, ReferencesAreJobsInvariant) {
  if (update_golden_mode()) GTEST_SKIP() << "not a golden-producing test";
  hs::CampaignSpec spec;
  spec.name = "golden-fig1";
  spec.cluster(hw::presets::lenox())
      .variant(hc::RuntimeKind::BareMetal, hc::BuildMode::SystemSpecific,
               "Bare-metal")
      .variant(hc::RuntimeKind::Singularity, hc::BuildMode::SystemSpecific,
               "Singularity")
      .variant(hc::RuntimeKind::Shifter, hc::BuildMode::SystemSpecific,
               "Shifter")
      .variant(hc::RuntimeKind::Docker, hc::BuildMode::SystemSpecific,
               "Docker")
      .nodes({4})
      .geometry(28, 4)
      .geometry(56, 2)
      .geometry(112, 1)
      .steps(3);
  const auto res =
      hs::CampaignRunner(hs::CampaignOptions{.jobs = 1}).run(spec);
  ASSERT_EQ(res.failed, 0u);
  expect_matches_golden("fig1_times.csv", figure_csv(fig1_times(res)));
}
