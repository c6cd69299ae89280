// The trace-analytics layer: the JSON reader, bottleneck attribution,
// critical-path extraction, Chrome-trace round-trips, campaign report
// determinism (jobs invariance + golden attribution table), and the paper
// consistency checks.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/images.hpp"
#include "core/runner.hpp"
#include "hw/presets.hpp"
#include "obs/analysis.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

#include "golden.hpp"

namespace hs = hpcs::study;
namespace hc = hpcs::container;
namespace ho = hpcs::obs;
namespace hw = hpcs::hw;
using hpcs::test_support::expect_matches_golden;

namespace {

hs::Scenario cfd_scenario(int steps = 4) {
  // Containerized so the trace carries a real deployment subtree (pulls,
  // per-node instantiation) for attribution and critical-path walking.
  hs::Scenario s{.cluster = hw::presets::lenox(),
                 .runtime = hc::RuntimeKind::Singularity,
                 .nodes = 4,
                 .ranks = 28,
                 .threads = 4,
                 .time_steps = steps};
  s.image = hs::alya_image(s.cluster, s.runtime,
                           hc::BuildMode::SystemSpecific);
  return s;
}

hs::RunResult observed_run(const hs::Scenario& s) {
  hs::RunnerOptions opts;
  opts.observe = true;
  return hs::ExperimentRunner(opts).run(s);
}

/// The golden-fig1-shaped campaign (same axes as test_golden_figures'
/// run_fig1), traced; jobs is the variable under test.
hs::CampaignResult fig1_campaign(int jobs) {
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
  hs::RunnerOptions ropts;
  ropts.observe = true;
  return hs::CampaignRunner(
             hs::CampaignOptions{.jobs = jobs, .runner = ropts})
      .run(spec);
}

std::string campaign_trace_json(const hs::CampaignResult& res) {
  std::ostringstream out;
  res.write_chrome_trace(out);
  return out.str();
}

std::string attribution_csv(const std::vector<ho::CellReport>& cells) {
  std::ostringstream out;
  ho::write_attribution_csv(out, cells);
  return out.str();
}

}  // namespace

// --- JSON reader ------------------------------------------------------------

TEST(Json, ParsesScalarsArraysAndObjects) {
  const auto doc = ho::parse_json(
      " {\"a\": 1.5, \"b\": [true, false, null, \"x\"], \"c\": {\"d\": -2e3},"
      " \"a\": 99} ");
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.at("a").number, 1.5);  // first duplicate wins
  const auto& b = doc.at("b");
  ASSERT_TRUE(b.is_array());
  ASSERT_EQ(b.items.size(), 4u);
  EXPECT_TRUE(b.items[0].boolean);
  EXPECT_TRUE(b.items[1].is_bool());
  EXPECT_FALSE(b.items[1].boolean);
  EXPECT_TRUE(b.items[2].is_null());
  EXPECT_EQ(b.items[3].text, "x");
  EXPECT_DOUBLE_EQ(doc.at("c").at("d").number, -2000.0);
  // Object member order is source order (serialization paths depend on it).
  ASSERT_EQ(doc.members.size(), 4u);
  EXPECT_EQ(doc.members[0].first, "a");
  EXPECT_EQ(doc.members[3].first, "a");
  EXPECT_DOUBLE_EQ(doc.members[3].second.number, 99.0);
}

TEST(Json, DecodesEscapesIncludingSurrogatePairs) {
  const auto v = ho::parse_json(
      "\"q\\\" b\\\\ s\\/ n\\n t\\t u\\u00e9 \\ud83d\\ude00\"");
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.text, "q\" b\\ s/ n\n t\t u\xc3\xa9 \xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedInputWithByteOffset) {
  const auto offset_of = [](const std::string& text) {
    try {
      ho::parse_json(text);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("(no throw)");
  };
  EXPECT_NE(offset_of("{\"a\": }").find("at byte 6"), std::string::npos);
  EXPECT_NE(offset_of("[1, 2,]").find("at byte"), std::string::npos);
  EXPECT_NE(offset_of("").find("at byte"), std::string::npos);
  EXPECT_NE(offset_of("{\"a\": 1} x").find("at byte 9"),
            std::string::npos);
  EXPECT_NE(offset_of("\"\\u12\"").find("at byte"), std::string::npos);
  // Depth bomb: 80 nested arrays exceeds the 64-level cap.
  EXPECT_NE(offset_of(std::string(80, '[')).find("nesting too deep"),
            std::string::npos);
}

TEST(Json, EscapeRoundTripsThroughParser) {
  const std::string nasty =
      "quote\" back\\slash \nnewline \ttab \rcr \x01ctl plain";
  const auto v = ho::parse_json("\"" + ho::json_escape(nasty) + "\"");
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.text, nasty);
}

// --- Attribution ------------------------------------------------------------

TEST(Attribution, BucketTaxonomyIsCanonical) {
  EXPECT_EQ(ho::bucket_of("phase", "compute"), ho::CostBucket::Compute);
  EXPECT_EQ(ho::bucket_of("phase", "halo"), ho::CostBucket::Comm);
  EXPECT_EQ(ho::bucket_of("phase", "reduction"), ho::CostBucket::Comm);
  EXPECT_EQ(ho::bucket_of("phase", "interface"), ho::CostBucket::Comm);
  EXPECT_EQ(ho::bucket_of("deployment", "pull"),
            ho::CostBucket::ContainerOverhead);
  EXPECT_EQ(ho::bucket_of("registry", "push"),
            ho::CostBucket::ContainerOverhead);
  EXPECT_EQ(ho::bucket_of("runner", "run"), ho::CostBucket::Other);
  EXPECT_STREQ(ho::to_string(ho::CostBucket::Comm), "comm");
  EXPECT_STREQ(ho::to_string(ho::CostBucket::ContainerOverhead),
               "container_overhead");
}

TEST(Attribution, FoldsObservedRunIntoTaxonomy) {
  const auto r = observed_run(cfd_scenario());
  const auto attr = ho::attribute(r.trace);

  // The deploy span *is* the container bucket (makespan, not per-node sum).
  EXPECT_NEAR(attr.container_overhead_s, r.deployment.total_time,
              std::max(r.deployment.total_time, 1.0) * 1e-9);
  // Compute + comm + residual reconstruct execution time exactly.
  EXPECT_NEAR(attr.comm_s + attr.compute_s + attr.other_s, r.total_time,
              r.total_time * 1e-9);
  EXPECT_GT(attr.compute_s, 0.0);
  EXPECT_GT(attr.comm_s, 0.0);
  EXPECT_GE(attr.other_s, 0.0);
  EXPECT_DOUBLE_EQ(attr.fault_recovery_s, 0.0);
  EXPECT_NEAR(attr.total_s(),
              attr.container_overhead_s + attr.comm_s + attr.compute_s +
                  attr.other_s,
              1e-12);
  // Fractions sum to 1 whenever any time was recorded.
  double frac = 0.0;
  for (const auto b :
       {ho::CostBucket::ContainerOverhead, ho::CostBucket::Comm,
        ho::CostBucket::Compute, ho::CostBucket::FaultRecovery,
        ho::CostBucket::Other})
    frac += attr.fraction(b);
  EXPECT_NEAR(frac, 1.0, 1e-12);
}

TEST(Attribution, AccumulatesWithPlusEquals) {
  ho::Attribution a{.container_overhead_s = 1.0, .comm_s = 2.0,
                    .compute_s = 3.0, .fault_recovery_s = 0.5,
                    .other_s = 0.25};
  ho::Attribution b = a;
  b += a;
  EXPECT_DOUBLE_EQ(b.total_s(), 2.0 * a.total_s());
  EXPECT_DOUBLE_EQ(b.comm_s, 4.0);
  EXPECT_DOUBLE_EQ(b.fraction(ho::CostBucket::Comm),
                   a.fraction(ho::CostBucket::Comm));
}

// --- Critical path ----------------------------------------------------------

TEST(CriticalPath, WalksRunDeployExecuteChain) {
  const auto r = observed_run(cfd_scenario());
  const auto path = ho::critical_path(r.trace);

  ASSERT_FALSE(path.steps.empty());
  EXPECT_EQ(path.steps.front().name, "run");
  EXPECT_EQ(path.steps.front().depth, 0);
  EXPECT_NEAR(path.total_s, r.deployment.total_time + r.total_time,
              (r.deployment.total_time + r.total_time) * 1e-9);

  std::map<std::string, int> names;
  for (const auto& s : path.steps) {
    ++names[s.name];
    EXPECT_GE(s.slack_s, -1e-9) << s.name;
    EXPECT_GE(s.duration_s, 0.0) << s.name;
    EXPECT_GE(s.depth, 0) << s.name;
  }
  // The chain descends through deployment and execution down to phases.
  EXPECT_EQ(names["deploy"], 1);
  EXPECT_EQ(names["execute"], 1);
  EXPECT_GE(names["step"], 1);
  // Every step after the root is deeper than 0 and within one level of
  // its predecessor's depth + 1 (pre-order emission).
  for (std::size_t i = 1; i < path.steps.size(); ++i) {
    EXPECT_GE(path.steps[i].depth, 1) << path.steps[i].name;
    EXPECT_LE(path.steps[i].depth, path.steps[i - 1].depth + 1)
        << path.steps[i].name;
  }
}

TEST(CriticalPath, IsDeterministicAndSurvivesJsonRoundTrip) {
  const auto r = observed_run(cfd_scenario(3));
  const auto direct = ho::critical_path(r.trace);

  std::ostringstream json;
  ho::write_chrome_trace(json, r.trace, "roundtrip");
  const auto procs = ho::read_chrome_trace(json.str());
  ASSERT_EQ(procs.size(), 1u);
  EXPECT_EQ(procs[0].name, "roundtrip");
  const auto reread = ho::critical_path(procs[0].data);

  // The round-trip quantizes timestamps to microseconds, so numerics are
  // near-equal rather than bitwise; the *structure* is identical.
  ASSERT_EQ(direct.steps.size(), reread.steps.size());
  EXPECT_NEAR(direct.total_s, reread.total_s, 1e-9);
  for (std::size_t i = 0; i < direct.steps.size(); ++i) {
    EXPECT_EQ(direct.steps[i].name, reread.steps[i].name) << i;
    EXPECT_EQ(direct.steps[i].depth, reread.steps[i].depth) << i;
    EXPECT_NEAR(direct.steps[i].start_s, reread.steps[i].start_s, 1e-9);
    EXPECT_NEAR(direct.steps[i].duration_s, reread.steps[i].duration_s,
                1e-9);
    EXPECT_NEAR(direct.steps[i].slack_s, reread.steps[i].slack_s, 1e-6);
  }

  // Re-analyzing the same serialized trace is byte-deterministic.
  const auto procs2 = ho::read_chrome_trace(json.str());
  std::ostringstream a, b;
  ho::write_critical_path_csv(a, reread);
  ho::write_critical_path_csv(b, ho::critical_path(procs2[0].data));
  EXPECT_EQ(a.str(), b.str());
  std::istringstream lines(a.str());
  std::string header;
  std::getline(lines, header);
  EXPECT_EQ(header, "depth,track,category,name,start,duration,slack");
}

TEST(CriticalPath, EmptyTraceYieldsEmptyPath) {
  const auto path = ho::critical_path(ho::TraceData{});
  EXPECT_TRUE(path.steps.empty());
  EXPECT_DOUBLE_EQ(path.total_s, 0.0);
}

// --- Chrome-trace reader ----------------------------------------------------

TEST(TraceReader, RoundTripPreservesAttribution) {
  const auto r = observed_run(cfd_scenario());
  const auto direct = ho::attribute(r.trace);

  std::ostringstream json;
  ho::write_chrome_trace(json, r.trace);
  const auto procs = ho::read_chrome_trace(json.str());
  ASSERT_EQ(procs.size(), 1u);
  const auto reread = ho::attribute(procs[0].data);

  EXPECT_NEAR(direct.container_overhead_s, reread.container_overhead_s,
              1e-6);
  EXPECT_NEAR(direct.comm_s, reread.comm_s, 1e-6);
  EXPECT_NEAR(direct.compute_s, reread.compute_s, 1e-6);
  EXPECT_NEAR(direct.fault_recovery_s, reread.fault_recovery_s, 1e-6);
  EXPECT_NEAR(direct.other_s, reread.other_s, 1e-6);
  EXPECT_EQ(procs[0].data.spans.size(), r.trace.spans.size());
  EXPECT_EQ(procs[0].data.instants.size(), r.trace.instants.size());
}

TEST(TraceReader, RejectsDocumentsWithoutTraceEvents) {
  EXPECT_THROW(ho::read_chrome_trace("{\"foo\": 1}"), std::invalid_argument);
  EXPECT_THROW(ho::read_chrome_trace("not json"), std::invalid_argument);
  EXPECT_THROW(ho::read_chrome_trace("{\"traceEvents\": 3}"),
               std::invalid_argument);
}

TEST(TraceReader, LoadsMultiProcessCampaignTraces) {
  const auto res = fig1_campaign(2);
  ASSERT_EQ(res.failed, 0u);
  const auto procs = ho::read_chrome_trace(campaign_trace_json(res));
  ASSERT_EQ(procs.size(), res.cells.size());
  for (std::size_t i = 0; i < procs.size(); ++i) {
    EXPECT_EQ(procs[i].pid, static_cast<int>(i));
    EXPECT_EQ(procs[i].name, res.cells[i].key);
    EXPECT_FALSE(procs[i].data.spans.empty()) << procs[i].name;
  }
}

// --- Campaign report --------------------------------------------------------

TEST(Report, ParsesCellKeysIntoAxes) {
  const auto res = fig1_campaign(2);
  const auto cells =
      ho::analyze_processes(ho::read_chrome_trace(campaign_trace_json(res)));
  ASSERT_EQ(cells.size(), 12u);
  for (const auto& c : cells) {
    EXPECT_EQ(c.cluster, "Lenox") << c.key;
    EXPECT_EQ(c.app, "artery-cfd") << c.key;
    EXPECT_EQ(c.nodes, 4) << c.key;
    EXPECT_EQ(c.rep, 0) << c.key;
    EXPECT_FALSE(c.failed) << c.key;
    EXPECT_GT(c.attr.total_s(), 0.0) << c.key;
    // point() strips exactly the runtime axis.
    EXPECT_EQ(c.point().find("Lenox/artery-cfd/"), 0u) << c.key;
  }
  EXPECT_EQ(cells[0].runtime, "Bare-metal");
  EXPECT_EQ(cells[0].runtime_class, "bare-metal");
  EXPECT_EQ(ho::runtime_class_of("Singularity system-specific"),
            "singularity");
  EXPECT_EQ(ho::runtime_class_of("Shifter"), "shifter");
  EXPECT_EQ(ho::runtime_class_of("Docker"), "docker");
  EXPECT_EQ(ho::runtime_class_of("mystery-rt"), "other");
  // Bare metal deploys nothing; the container runtimes all pay overhead.
  std::map<std::string, double> overhead;
  for (const auto& c : cells)
    overhead[c.runtime_class] += c.attr.container_overhead_s;
  EXPECT_LT(overhead["bare-metal"], overhead["singularity"]);
  EXPECT_LT(overhead["bare-metal"], overhead["shifter"]);
  EXPECT_LT(overhead["bare-metal"], overhead["docker"]);
}

TEST(Report, AttributionTableIsJobsInvariantAndGolden) {
  const auto serial = fig1_campaign(1);
  const auto parallel = fig1_campaign(4);
  ASSERT_EQ(serial.failed, 0u);
  ASSERT_EQ(parallel.failed, 0u);

  const auto cells_1 =
      ho::analyze_processes(ho::read_chrome_trace(campaign_trace_json(serial)));
  const auto cells_4 = ho::analyze_processes(
      ho::read_chrome_trace(campaign_trace_json(parallel)));

  const std::string csv_1 = attribution_csv(cells_1);
  const std::string csv_4 = attribution_csv(cells_4);
  EXPECT_EQ(csv_1, csv_4) << "attribution table depends on --jobs";
  expect_matches_golden("fig1_attribution.csv", csv_1);

  std::istringstream lines(csv_1);
  std::string header;
  std::getline(lines, header);
  EXPECT_EQ(header,
            "pid,key,cluster,runtime,runtime_class,app,nodes,rep,failed,"
            "container_overhead_s,comm_s,compute_s,fault_recovery_s,"
            "other_s,total_s,comm_exec_fraction");

  // The JSON form is equally jobs-invariant and parses back.
  std::ostringstream json_1, json_4;
  ho::write_attribution_json(json_1, cells_1, ho::run_checks(cells_1));
  ho::write_attribution_json(json_4, cells_4, ho::run_checks(cells_4));
  EXPECT_EQ(json_1.str(), json_4.str());
  const auto doc = ho::parse_json(json_1.str());
  EXPECT_EQ(doc.at("schema").text, "hpcs-report-v1");
  EXPECT_EQ(doc.at("cells").items.size(), 12u);
  EXPECT_FALSE(doc.at("checks").items.empty());
}

TEST(Report, ConsistencyChecksPassOnFig1Campaign) {
  const auto res = fig1_campaign(2);
  const auto cells =
      ho::analyze_processes(ho::read_chrome_trace(campaign_trace_json(res)));
  const auto checks = ho::run_checks(cells);
  ASSERT_EQ(checks.size(), 4u);
  std::map<std::string, bool> by_id;
  for (const auto& c : checks) {
    by_id[c.id] = c.passed;
    EXPECT_TRUE(c.passed) << c.id << ": " << c.detail;
    EXPECT_FALSE(c.detail.empty()) << c.id;
  }
  EXPECT_TRUE(by_id.count("comm-parity"));
  EXPECT_TRUE(by_id.count("docker-comm-penalty"));
  EXPECT_TRUE(by_id.count("container-overhead"));
  EXPECT_TRUE(by_id.count("attribution-sums"));
}

TEST(Report, ChecksSkipWithoutApplicableCells) {
  // A bare-metal-only campaign offers no containerized comparisons; the
  // pairwise checks must pass as skipped rather than fail vacuously.
  const auto checks = ho::run_checks({});
  ASSERT_EQ(checks.size(), 4u);
  for (const auto& c : checks) EXPECT_TRUE(c.passed) << c.id;
}

TEST(Report, ExecCommFractionExcludesDeployment) {
  ho::Attribution attr{.container_overhead_s = 100.0, .comm_s = 1.0,
                       .compute_s = 3.0, .fault_recovery_s = 0.0,
                       .other_s = 0.0};
  EXPECT_DOUBLE_EQ(ho::exec_comm_fraction(attr), 0.25);
  EXPECT_DOUBLE_EQ(ho::exec_comm_fraction(ho::Attribution{}), 0.0);
}

