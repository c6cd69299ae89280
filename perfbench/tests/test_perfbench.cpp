// Unit tests of the benchmark's own machinery: the correctness gate, the
// percentile summary, span self time, and ratio bases.
//
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>

#include "gate.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb = perfbench;

namespace {

pb::Span span(std::string_view name, double start, double end,
              std::uint64_t id, std::uint64_t parent = 0) {
  pb::Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.id = id;
  s.parent = parent;
  return s;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

}  // namespace

TEST(Gate, CorruptedPinnedDigestIsAFailedOperation) {
  pb::Pins pins;
  pins.seed = 7;
  pins.values["cell-a"] = pb::digest("row a");
  pins.values["cell-b"] = pb::digest("row b, corrupted");
  pb::Gate gate(pins, 7);
  ASSERT_TRUE(gate.pinned());
  gate.check("cell-a", pb::digest("row a"));
  gate.check("cell-b", pb::digest("row b"));
  EXPECT_EQ(gate.attempted(), 2u);
  EXPECT_EQ(gate.failed(), 1u);
  ASSERT_EQ(gate.errors().size(), 1u);
  EXPECT_NE(gate.errors()[0].find("cell-b"), std::string::npos);
}

TEST(Gate, PinsOfAnotherSeedAreNotApplied) {
  pb::Pins pins;
  pins.seed = 7;
  pins.values["cell-a"] = pb::digest("row a");
  pb::Gate gate(pins, 8);
  EXPECT_FALSE(gate.pinned());
  gate.check("cell-a", pb::digest("another row"));
  EXPECT_EQ(gate.failed(), 0u);
  // The same key must still repeat its output within the run.
  gate.check("cell-a", pb::digest("a third row"));
  EXPECT_EQ(gate.attempted(), 2u);
  EXPECT_EQ(gate.failed(), 1u);
}

TEST(Gate, MissingPinIsAFailedOperation) {
  pb::Pins pins;
  pins.seed = 1;
  pins.values["cell-a"] = "x";
  pb::Gate gate(pins, 1);
  gate.check("cell-new", "x");
  EXPECT_EQ(gate.failed(), 1u);
}

TEST(Gate, BrokenGatewayAccountingIsAFailedOperation) {
  hpcs::gateway::GatewayStats stats;
  stats.arrivals = 10;
  stats.completed = 6;
  stats.failed = 1;
  stats.rejected_queue = 1;
  stats.deadline_sheds = 1;
  stats.breaker_fastfail = 1;
  EXPECT_EQ(pb::gateway_accounting_error(stats), "");
  pb::Gate gate({}, 1);
  gate.check("held", "d", pb::gateway_accounting_error(stats));
  stats.completed = 5;  // one arrival unaccounted for
  gate.check("broken", "d", pb::gateway_accounting_error(stats));
  EXPECT_EQ(gate.attempted(), 2u);
  EXPECT_EQ(gate.failed(), 1u);
}

TEST(Gate, BrokenJobConservationIsAFailedOperation) {
  hpcs::sched::SchedStats stats;
  stats.submitted = 5;
  stats.completed = 3;
  stats.failed = 1;
  stats.shed = 1;
  EXPECT_EQ(pb::sched_conservation_error(stats), "");
  stats.shed = 0;
  pb::Gate gate({}, 1);
  gate.check_invariant("cell", pb::sched_conservation_error(stats));
  gate.fail("thrown", "boom");
  EXPECT_EQ(gate.attempted(), 2u);
  EXPECT_EQ(gate.failed(), 2u);
}

TEST(Gate, CustomMatchAllowsATolerance) {
  pb::Pins pins;
  pins.seed = 1;
  pins.values["step"] = "1.0";
  pb::Gate gate(pins, 1, [](const std::string& a, const std::string& b) {
    return std::abs(std::stod(a) - std::stod(b)) < 1e-3;
  });
  gate.check("step", "1.0001");
  EXPECT_EQ(gate.failed(), 0u);
  gate.check("step", "1.01");
  EXPECT_EQ(gate.failed(), 1u);
}

TEST(Pins, SaveLoadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "perfbench_pins_test.pins")
          .string();
  pb::Pins pins;
  pins.seed = 42;
  pins.values["a/b(c)/n4"] = "0123456789abcdef";
  pins.values["step-1"] = "3 1.5e-05";
  pins.save(path);
  const pb::Pins back = pb::Pins::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(back.seed, 42u);
  EXPECT_EQ(back.values, pins.values);
  EXPECT_TRUE(pb::Pins::load(path).values.empty());
}

TEST(Summary, ReportsSampleCountsAndTheHighestQualifiedPercentile) {
  // Fewer than 20 samples: no percentile has 10 beyond it.
  pb::Summary s = pb::summarize(ramp(19));
  EXPECT_EQ(s.n, 19u);
  EXPECT_EQ(s.tail_q, 0.0);
  EXPECT_EQ(s.p50, 10.0);
  EXPECT_EQ(s.tail, s.p50);
  EXPECT_EQ(s.max, 19.0);

  s = pb::summarize(ramp(20));
  EXPECT_EQ(s.n, 20u);
  EXPECT_EQ(s.tail_q, 0.5);  // rank 10, 10 samples beyond

  s = pb::summarize(ramp(100));
  EXPECT_EQ(s.n, 100u);
  EXPECT_EQ(s.tail_q, 0.9);  // rank 90, 10 beyond; p99 has 1
  EXPECT_EQ(s.tail, 90.0);

  s = pb::summarize(ramp(999));
  EXPECT_EQ(s.tail_q, 0.9);  // p99: rank 990, only 9 beyond

  s = pb::summarize(ramp(1000));
  EXPECT_EQ(s.tail_q, 0.99);
  EXPECT_EQ(s.tail, 990.0);

  s = pb::summarize(ramp(10000));
  EXPECT_EQ(s.tail_q, 0.999);
  EXPECT_EQ(s.tail, 9990.0);

  s = pb::summarize({});
  EXPECT_EQ(s.n, 0u);
}

TEST(Summary, MedianOfEvenAndOddCounts) {
  EXPECT_EQ(pb::median({3, 1, 2}), 2.0);
  EXPECT_EQ(pb::median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(pb::median({}), 0.0);
}

TEST(SelfTime, HandBuiltTree) {
  // root [0,10]: children [1,3] and [2,5] overlap (pool workers) and
  // [8,12] runs past the root's end; covered = [1,5] + [8,10] = 6.
  // [2,5] has a child [3,4]; the leaves have no children.
  const std::vector<pb::Span> spans = {
      span("run.pass", 0, 10, 1),        span("core.cell", 1, 3, 2, 1),
      span("core.cell", 2, 5, 3, 1),     span("core.runner", 3, 4, 4, 3),
      span("core.fold/x", 8, 12, 5, 1),  span("run.split", 20, 21, 6),
  };
  const std::vector<double> self = pb::self_times(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_DOUBLE_EQ(self[0], 4.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 2.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  EXPECT_DOUBLE_EQ(self[4], 4.0);
  EXPECT_DOUBLE_EQ(self[5], 1.0);
}

TEST(SelfTime, TimingMetricsNormalizePassSpansPerPass) {
  // Two traced passes, each with one runner span of 1 s, and one split
  // with a deploy span of 3 s.
  const std::vector<pb::Span> spans = {
      span("run.pass", 0, 2, 1),        span("core.runner", 0, 1, 2, 1),
      span("run.pass", 2, 4, 3),        span("core.runner", 2, 3, 4, 3),
      span("run.split", 4, 8, 5),       span("container.deploy", 4, 7, 6, 5),
  };
  pb::Values values;
  pb::timing_values(spans, values);
  EXPECT_DOUBLE_EQ(values["core.runner_s"], 1.0);
  EXPECT_DOUBLE_EQ(values["core.runner_s.n"], 2.0);
  EXPECT_DOUBLE_EQ(values["core.runner_s.p50"], 1.0);
  EXPECT_DOUBLE_EQ(values["container.deploy_s"], 3.0);
  EXPECT_DOUBLE_EQ(values["alya.step_s.n"], 0.0);
}

TEST(Tracer, ScopesNestPerThread) {
  pb::Tracer tracer;
  std::uint64_t outer_id = 0;
  {
    const pb::Tracer::Scope outer(&tracer, "run.pass");
    outer_id = outer.id();
    const pb::Tracer::Scope inner(&tracer, "core.runner");
  }
  { const pb::Tracer::Scope off(nullptr, "ignored"); }
  const std::vector<pb::Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "run.pass");
  EXPECT_EQ(spans[1].parent, outer_id);
  EXPECT_LE(spans[0].start, spans[1].start);
  EXPECT_GE(spans[0].end, spans[1].end);
}

TEST(Ratios, EveryRatioMetricCarriesItsBases) {
  std::set<std::string> catalog;
  for (const pb::MetricDef& m : pb::per_layer_metrics())
    EXPECT_TRUE(catalog.insert(m.name).second) << "duplicate " << m.name;
  EXPECT_LE(catalog.size(), 128u);
  std::set<std::string> with_bases;
  for (const auto& [name, bases] : pb::ratio_bases()) {
    with_bases.insert(name);
    EXPECT_TRUE(catalog.count(name)) << name;
    EXPECT_TRUE(catalog.count(bases.numerator)) << bases.numerator;
    EXPECT_TRUE(catalog.count(bases.denominator)) << bases.denominator;
  }
  for (const pb::MetricDef& m : pb::per_layer_metrics())
    if (m.unit == "ratio")
      EXPECT_TRUE(with_bases.count(m.name)) << m.name << " has no bases";
}

TEST(Ratios, PoolValuesAgreeWithTheirBases) {
  // One pass; a 2 s pool on 2 workers ran cells of 1 s and 3 s.
  const std::vector<pb::Span> spans = {
      span("run.pass", 0, 2, 1), span("core.pool", 0, 2, 2, 1),
      span("core.cell", 0, 1, 3, 2), span("core.cell", 0, 1.5, 4, 2),
      span("core.cell", 1, 2, 5, 2)};
  pb::Values v;
  pb::pool_values(spans, "core.pool", {"core.cell"}, 2, v);
  EXPECT_DOUBLE_EQ(v["core.pool_busy_s"], 3.5);
  EXPECT_DOUBLE_EQ(v["core.pool_capacity_s"], 4.0);
  EXPECT_DOUBLE_EQ(v["core.pool_utilization"],
                   v["core.pool_busy_s"] / v["core.pool_capacity_s"]);
  EXPECT_DOUBLE_EQ(v["core.cell_imbalance"],
                   v["core.cell_max_s"] / v["core.cell_mean_s"]);
}

TEST(Result, JsonCarriesEveryDeclaredMetric) {
  pb::Values values{{"wall_s", 0.5}, {"setup_s", 1e-6}};
  const std::string json = pb::result_json(
      {.correct = true, .attempted = 3, .failed = 0},
      pb::end_to_end_metrics(), values);
  EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0, ",
                       0),
            0u);
  for (const pb::MetricDef& m : pb::end_to_end_metrics())
    EXPECT_NE(json.find("\"" + m.name + "\": {\"value\": "),
              std::string::npos);
  EXPECT_NE(json.find("\"wall_s\": {\"value\": 0.5, \"unit\": \"s\"}"),
            std::string::npos);
}
