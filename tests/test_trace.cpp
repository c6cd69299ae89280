// The runner's per-step phase breakdown, read off the trace's "phase"
// spans (Paraver-lite).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "hw/presets.hpp"

namespace hs = hpcs::study;
namespace hc = hpcs::container;
namespace ho = hpcs::obs;

namespace {

std::vector<ho::SpanEvent> phase_spans(const ho::TraceData& trace) {
  std::vector<ho::SpanEvent> out;
  for (const auto& s : trace.spans)
    if (s.category == "phase") out.push_back(s);
  return out;
}

std::map<std::string, double> phase_totals(
    const std::vector<ho::SpanEvent>& phases) {
  std::map<std::string, double> out;
  for (const auto& s : phases) out[s.name] += s.duration;
  return out;
}

}  // namespace

TEST(RunnerTimeline, DisabledByDefault) {
  const hs::ExperimentRunner runner;
  hs::Scenario s{.cluster = hpcs::hw::presets::lenox(),
                 .runtime = hc::RuntimeKind::BareMetal,
                 .nodes = 4,
                 .ranks = 28,
                 .threads = 4,
                 .time_steps = 3};
  EXPECT_TRUE(runner.run(s).trace.empty());
}

TEST(RunnerTimeline, RecordsPhasesPerStep) {
  hs::RunnerOptions opts;
  opts.observe = true;
  const hs::ExperimentRunner runner(opts);
  hs::Scenario s{.cluster = hpcs::hw::presets::lenox(),
                 .runtime = hc::RuntimeKind::BareMetal,
                 .nodes = 4,
                 .ranks = 28,
                 .threads = 4,
                 .time_steps = 4};
  const auto r = runner.run(s);
  const auto phases = phase_spans(r.trace);
  // CFD: 3 phases per step (no interface phase).
  ASSERT_EQ(phases.size(), 12u);
  // The phase spans, laid back-to-back, reconstruct the campaign duration.
  double first = phases.front().start;
  double last = 0.0;
  for (const auto& p : phases) {
    first = std::min(first, p.start);
    last = std::max(last, p.start + p.duration);
  }
  EXPECT_NEAR(last - first, r.total_time, r.total_time * 1e-9);
  // Phase totals match the result decomposition.
  const auto totals = phase_totals(phases);
  EXPECT_EQ(totals.count("interface"), 0u);
  EXPECT_NEAR(totals.at("compute"), r.compute_time * 4.0,
              r.compute_time * 4e-9 + 1e-12);
  EXPECT_NEAR(totals.at("halo"), r.halo_time * 4.0,
              r.halo_time * 4e-9 + 1e-12);
}

TEST(RunnerTimeline, FsiIncludesInterfacePhase) {
  hs::RunnerOptions opts;
  opts.observe = true;
  const hs::ExperimentRunner runner(opts);
  hs::Scenario s{.cluster = hpcs::hw::presets::marenostrum4(),
                 .runtime = hc::RuntimeKind::BareMetal,
                 .app = hs::AppCase::ArteryFsi,
                 .nodes = 8,
                 .ranks = 384,
                 .threads = 1,
                 .time_steps = 2};
  const auto r = runner.run(s);
  const auto phases = phase_spans(r.trace);
  EXPECT_EQ(phases.size(), 8u);  // 4 phases x 2 steps
  EXPECT_GT(phase_totals(phases)["interface"], 0.0);
}
