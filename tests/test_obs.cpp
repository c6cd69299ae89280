// The observability layer: span nesting invariants, phase accounting,
// metrics merge algebra, the zero-cost disabled path, and campaign-level
// jobs invariance of the serialized artifacts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/runner.hpp"
#include "hw/presets.hpp"
#include "obs/collector.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"

namespace hs = hpcs::study;
namespace hc = hpcs::container;
namespace ho = hpcs::obs;
namespace hw = hpcs::hw;

namespace {

hs::Scenario cfd_scenario(int steps = 4) {
  return hs::Scenario{.cluster = hw::presets::lenox(),
                      .runtime = hc::RuntimeKind::BareMetal,
                      .nodes = 4,
                      .ranks = 28,
                      .threads = 4,
                      .time_steps = steps};
}

hs::RunResult observed_run(const hs::Scenario& s) {
  hs::RunnerOptions opts;
  opts.observe = true;
  return hs::ExperimentRunner(opts).run(s);
}

std::string metrics_json(const ho::Metrics& m) {
  std::ostringstream out;
  m.write_json(out);
  return out.str();
}

ho::Metrics sample_metrics(double scale) {
  ho::Metrics m;
  m.count("a/counter", scale);
  m.count("b/counter", 2.0 * scale);
  m.gauge("a/gauge", 10.0 - scale);
  m.observe("a/hist", scale);
  m.observe("a/hist", 3.0 * scale);
  return m;
}

/// ≥ 8-cell campaign used by the jobs-invariance tests.
hs::CampaignResult observed_campaign(int jobs) {
  hs::CampaignSpec spec;
  spec.name = "obs-invariance";
  spec.cluster(hw::presets::lenox())
      .variant(hc::RuntimeKind::BareMetal)
      .variant(hc::RuntimeKind::Singularity)
      .variant(hc::RuntimeKind::Shifter)
      .variant(hc::RuntimeKind::Docker)
      .nodes({2, 4})
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

}  // namespace

// --- Span-forest well-formedness -------------------------------------------

TEST(ObsSpans, RunnerTraceIsAWellFormedForest) {
  const auto r = observed_run(cfd_scenario());
  ASSERT_FALSE(r.trace.spans.empty());

  std::map<std::uint64_t, const ho::SpanEvent*> by_id;
  for (const auto& s : r.trace.spans) {
    EXPECT_NE(s.id, 0u);
    EXPECT_TRUE(by_id.emplace(s.id, &s).second)
        << "duplicate span id " << s.id;
    EXPECT_GE(s.duration, 0.0) << s.name;
    EXPECT_GE(s.start, 0.0) << s.name;
  }
  for (const auto& s : r.trace.spans) {
    if (s.parent == 0) continue;
    const auto it = by_id.find(s.parent);
    ASSERT_NE(it, by_id.end())
        << s.name << ": dangling parent id " << s.parent;
    const auto& p = *it->second;
    // A child lies inside its parent's interval and on its track.
    EXPECT_EQ(s.track, p.track) << s.name << " in " << p.name;
    EXPECT_GE(s.start, p.start - 1e-9) << s.name << " in " << p.name;
    EXPECT_LE(s.end(), p.end() + 1e-9) << s.name << " in " << p.name;
  }
  // Instants also sit inside the run span.
  double run_end = 0.0;
  for (const auto& s : r.trace.spans)
    if (s.name == "run") run_end = s.end();
  for (const auto& i : r.trace.instants) {
    EXPECT_GE(i.time, -1e-9);
    EXPECT_LE(i.time, run_end + 1e-9);
  }
}

TEST(ObsSpans, PhaseDurationsSumToStepAndRun) {
  const auto r = observed_run(cfd_scenario());

  std::map<std::uint64_t, double> child_sum;  // step id -> phase total
  std::map<std::uint64_t, const ho::SpanEvent*> steps;
  double step_total = 0.0;
  for (const auto& s : r.trace.spans)
    if (s.name == "step") {
      steps.emplace(s.id, &s);
      step_total += s.duration;
    }
  ASSERT_EQ(steps.size(), 4u);
  for (const auto& s : r.trace.spans)
    if (s.category == "phase") child_sum[s.parent] += s.duration;
  ASSERT_EQ(child_sum.size(), steps.size());
  for (const auto& [id, total] : child_sum) {
    ASSERT_TRUE(steps.count(id));
    const double d = steps.at(id)->duration;
    EXPECT_NEAR(total, d, std::max(d, 1.0) * 1e-9)
        << "phases of step " << id << " do not sum to the step";
  }
  // All steps together reconstruct the execution span and total_time.
  EXPECT_NEAR(step_total, r.total_time, r.total_time * 1e-9);
  for (const auto& s : r.trace.spans) {
    if (s.name == "execute") {
      EXPECT_NEAR(s.duration, r.total_time, r.total_time * 1e-9);
    } else if (s.name == "deploy") {
      EXPECT_NEAR(s.duration, r.deployment.total_time,
                  std::max(r.deployment.total_time, 1.0) * 1e-9);
    } else if (s.name == "run") {
      EXPECT_NEAR(s.duration, r.deployment.total_time + r.total_time,
                  (r.deployment.total_time + r.total_time) * 1e-9);
    }
  }
}

TEST(ObsSpans, ScopeClosesAtCursorWhenNotClosedExplicitly) {
  auto sink = std::make_shared<ho::MemorySink>();
  ho::Collector col(sink);
  {
    ho::SpanScope outer(col, 0, "outer", "test", 1.0);
    col.span(0, "child", "test", 1.0, 2.5);
    // No outer.close(): the destructor closes at the cursor (3.5).
  }
  auto data = sink->take();
  ASSERT_EQ(data.spans.size(), 2u);
  // Canonical order puts the (longer) parent first.
  EXPECT_EQ(data.spans[0].name, "outer");
  EXPECT_DOUBLE_EQ(data.spans[0].start, 1.0);
  EXPECT_DOUBLE_EQ(data.spans[0].duration, 2.5);
  EXPECT_EQ(data.spans[1].parent, data.spans[0].id);
}

// --- Metrics algebra --------------------------------------------------------

TEST(ObsMetrics, MergeIsAssociative) {
  const auto a = sample_metrics(1.0);
  const auto b = sample_metrics(2.0);
  const auto c = sample_metrics(5.0);

  ho::Metrics left = a;   // (a + b) + c
  left.merge(b);
  left.merge(c);
  ho::Metrics bc = b;     // a + (b + c)
  bc.merge(c);
  ho::Metrics right = a;
  right.merge(bc);

  EXPECT_EQ(metrics_json(left), metrics_json(right));
  EXPECT_DOUBLE_EQ(left.counter_value("a/counter"), 8.0);
  EXPECT_DOUBLE_EQ(left.gauge_value("a/gauge").value(), 9.0);  // max
  EXPECT_EQ(left.histogram("a/hist")->count(), 6u);
}

TEST(ObsMetrics, MergingAnEmptyRegistryPreservesExactBytes) {
  const auto full = sample_metrics(1.0);
  const std::string reference = metrics_json(full);

  ho::Metrics into_full = full;  // full += empty
  into_full.merge(ho::Metrics{});
  EXPECT_EQ(metrics_json(into_full), reference);

  ho::Metrics from_empty;  // empty += full
  from_empty.merge(full);
  EXPECT_EQ(metrics_json(from_empty), reference);

  ho::Metrics both;  // empty += empty stays empty (and stable)
  both.merge(ho::Metrics{});
  EXPECT_TRUE(both.empty());
  EXPECT_EQ(metrics_json(both),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n"
            "  \"histograms\": {}\n}\n");
}

TEST(ObsMetrics, SingleSampleHistogramHasExactJsonBytes) {
  ho::Metrics m;
  m.observe("h", 2.5);
  // One sample: stddev is defined as 0 (n-1 denominator), min == max ==
  // mean == sum.  The bytes are pinned because golden artifacts embed
  // them.
  EXPECT_EQ(metrics_json(m),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n"
            "  \"histograms\": {\n"
            "    \"h\": {\"count\": 1, \"mean\": 2.5, \"stddev\": 0, "
            "\"min\": 2.5, \"max\": 2.5, \"sum\": 2.5}\n"
            "  }\n}\n");
}

TEST(ObsMetrics, CounterSurvivesValuesNearUint64Max) {
  // Counters are doubles, so they degrade gracefully (lose ulps, never
  // wrap) where a uint64 would overflow.  2^63 is exactly representable;
  // the sum prints as the %.17g literal golden files would embed.
  const double half = 9223372036854775808.0;  // 2^63
  ho::Metrics m;
  m.count("big", half);
  m.count("big", half);
  EXPECT_DOUBLE_EQ(m.counter_value("big"), 2.0 * half);
  EXPECT_NE(metrics_json(m).find("\"big\": 1.8446744073709552e+19"),
            std::string::npos)
      << metrics_json(m);

  // Merge behaves identically to in-place accumulation at this scale.
  ho::Metrics a, b;
  a.count("big", half);
  b.count("big", half);
  a.merge(b);
  EXPECT_EQ(metrics_json(a), metrics_json(m));
}

TEST(ObsMetrics, MergeEdgeCasesFoldDeterministically) {
  // Zero-valued counters, negative gauges, and single-sample histograms:
  // the campaign's left-fold (strict cell-index order) must reproduce
  // identical bytes on every evaluation — that, not bit-exact
  // associativity (Welford combines reassociate floating point), is the
  // jobs-invariance guarantee.
  const auto make = [](double seed) {
    ho::Metrics m;
    m.count("zero", 0.0);
    m.gauge("neg", -seed);
    m.observe("one", seed);
    return m;
  };
  const auto fold = [&make] {
    ho::Metrics total;
    for (const double seed : {1.0, 2.0, 4.0}) total.merge(make(seed));
    return total;
  };
  const auto left = fold();
  EXPECT_EQ(metrics_json(left), metrics_json(fold()));
  EXPECT_DOUBLE_EQ(left.counter_value("zero"), 0.0);
  EXPECT_DOUBLE_EQ(left.gauge_value("neg").value(), -1.0);  // max
  EXPECT_EQ(left.histogram("one")->count(), 3u);

  // Reassociating is still *statistically* equivalent (same samples).
  ho::Metrics bc = make(2.0);
  bc.merge(make(4.0));
  ho::Metrics right = make(1.0);
  right.merge(bc);
  const auto lh = left.histogram("one").value();
  const auto rh = right.histogram("one").value();
  EXPECT_EQ(lh.count(), rh.count());
  EXPECT_NEAR(lh.mean(), rh.mean(), 1e-12);
  EXPECT_NEAR(lh.stddev(), rh.stddev(), 1e-12);
  EXPECT_DOUBLE_EQ(lh.min(), rh.min());
  EXPECT_DOUBLE_EQ(lh.max(), rh.max());
}

TEST(ObsMetrics, NamesWithSpecialCharactersEscapeAndReparse) {
  ho::Metrics m;
  m.count("quote\"slash\\new\nline", 1.0);
  m.gauge("tab\tkey", 2.0);
  const auto doc = hpcs::obs::parse_json(metrics_json(m));
  EXPECT_DOUBLE_EQ(doc.at("counters").at("quote\"slash\\new\nline").number,
                   1.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("tab\tkey").number, 2.0);
}

TEST(ObsMetrics, CampaignAggregateIsJobsInvariant) {
  const auto serial = observed_campaign(1);
  const auto parallel = observed_campaign(4);
  ASSERT_EQ(serial.failed, 0u);
  ASSERT_EQ(parallel.failed, 0u);
  EXPECT_EQ(metrics_json(serial.aggregate_metrics()),
            metrics_json(parallel.aggregate_metrics()));
  EXPECT_DOUBLE_EQ(
      serial.aggregate_metrics().counter_value("campaign/cells"), 8.0);
}

// --- Disabled path ----------------------------------------------------------

TEST(ObsDisabled, RecordsNothingAndCostsNoState) {
  ho::Collector col;  // default-constructed: disabled
  EXPECT_FALSE(col.enabled());
  col.span(0, "x", "t", 0.0, 1.0);
  col.instant(0, "y", "t", 0.5);
  col.count("c");
  col.gauge("g", 1.0);
  col.observe("h", 2.0);
  {
    ho::SpanScope scope(col, 0, "scoped", "t", 0.0);
    scope.close(1.0);
  }
  EXPECT_TRUE(col.metrics().empty());
  EXPECT_DOUBLE_EQ(col.cursor(0), 0.0);
  EXPECT_TRUE(col.host_stats().empty());

  ho::Collector null_sink_col{std::shared_ptr<ho::Sink>{}};
  EXPECT_FALSE(null_sink_col.enabled());
}

TEST(ObsDisabled, ObserveFlagDoesNotPerturbResults) {
  // Observability must not draw from the simulation RNG or reorder any
  // model arithmetic: every numeric result is bit-identical with the
  // collector on and off.
  const auto s = cfd_scenario(5);
  const auto off = hs::ExperimentRunner().run(s);
  const auto on = observed_run(s);

  EXPECT_EQ(on.total_time, off.total_time);
  EXPECT_EQ(on.avg_step_time, off.avg_step_time);
  EXPECT_EQ(on.compute_time, off.compute_time);
  EXPECT_EQ(on.halo_time, off.halo_time);
  EXPECT_EQ(on.reduction_time, off.reduction_time);
  EXPECT_EQ(on.comm_fraction, off.comm_fraction);
  EXPECT_EQ(on.energy_j, off.energy_j);
  EXPECT_EQ(on.deployment.total_time, off.deployment.total_time);
  EXPECT_EQ(on.deployment.bytes_transferred, off.deployment.bytes_transferred);

  // And the disabled run carries no trace or metrics at all.
  EXPECT_TRUE(off.trace.empty());
  EXPECT_TRUE(off.metrics.empty());
  EXPECT_FALSE(on.trace.empty());
  EXPECT_FALSE(on.metrics.empty());
}

// --- Jobs invariance of serialized artifacts --------------------------------

TEST(ObsCampaign, TraceBytesAreJobsInvariant) {
  const auto serial = observed_campaign(1);
  const auto parallel = observed_campaign(4);
  ASSERT_EQ(serial.cells.size(), 8u);
  EXPECT_EQ(campaign_trace_json(serial), campaign_trace_json(parallel));
}

TEST(ObsCampaign, CellTracesCoverDeploymentAndPhases) {
  const auto res = observed_campaign(2);
  for (const auto& cell : res.cells) {
    ASSERT_TRUE(cell.ok) << cell.key;
    std::map<std::string, int> names;
    for (const auto& s : cell.result.trace.spans) ++names[s.name];
    EXPECT_GE(names["step"], 3) << cell.key;
    EXPECT_GE(names["compute"], 3) << cell.key;
    EXPECT_EQ(names["deploy"], 1) << cell.key;
    EXPECT_EQ(names["run"], 1) << cell.key;
    if (cell.variant.runtime != hc::RuntimeKind::BareMetal) {
      EXPECT_GE(names["instantiate"], 1) << cell.key;
    }
    // Worker attribution exists but is diagnostic-only.
    EXPECT_GE(cell.worker, 0) << cell.key;
  }
}

TEST(ObsCampaign, TraceJsonEscapesHostileNames) {
  // Span, instant, and process names with quotes/backslashes/control
  // characters must survive a JSON round-trip — the same guarantee the
  // smoke ctests' string(JSON) check asserts on real traces.
  auto sink = std::make_shared<ho::MemorySink>();
  ho::Collector col(sink);
  col.span(0, "na\"me\\with\njunk", "cat\tegory", 0.0, 1.0);
  col.instant(0, "instant\r\"x\"", "t", 0.5);
  std::ostringstream out;
  ho::write_chrome_trace(out, sink->take(), "proc \"0\"\\cell");

  const auto doc = ho::parse_json(out.str());
  const auto& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  std::map<std::string, int> names;
  for (const auto& e : events.items) {
    if (const auto* name = e.find("name")) ++names[name->text];
    if (const auto* args = e.find("args"))
      if (const auto* pname = args->find("name")) ++names[pname->text];
  }
  EXPECT_EQ(names["na\"me\\with\njunk"], 1);
  EXPECT_EQ(names["instant\r\"x\""], 1);
  EXPECT_EQ(names["proc \"0\"\\cell"], 1);
}

namespace {

/// A plain Chrome-trace writer: canonicalize a copy of the trace, format
/// times with snprintf("%.3f") and escape every name.  ChromeTraceWriter
/// must produce exactly these bytes.
class ReferenceChromeTrace {
 public:
  ReferenceChromeTrace() { out_ << "{\"traceEvents\":[\n"; }

  void process_name(int pid, const std::string& name) {
    comma();
    out_ << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
         << ",\"tid\":0,\"args\":{\"name\":\"" << ho::json_escape(name)
         << "\"}}";
  }

  void add(const ho::TraceData& data, int pid, double time_offset_s) {
    ho::TraceData sorted = data;
    sorted.canonicalize();
    for (const auto& s : sorted.spans) {
      comma();
      out_ << "{\"name\":\"" << ho::json_escape(s.name) << "\",\"cat\":\""
           << ho::json_escape(s.category) << "\",\"ph\":\"X\",\"pid\":"
           << pid << ",\"tid\":" << s.track
           << ",\"ts\":" << usec(s.start + time_offset_s)
           << ",\"dur\":" << usec(s.duration);
      args(s.args);
      out_ << '}';
    }
    for (const auto& i : sorted.instants) {
      comma();
      out_ << "{\"name\":\"" << ho::json_escape(i.name) << "\",\"cat\":\""
           << ho::json_escape(i.category)
           << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid
           << ",\"tid\":" << i.track
           << ",\"ts\":" << usec(i.time + time_offset_s);
      args(i.args);
      out_ << '}';
    }
  }

  std::string finish() {
    out_ << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":"
            "{\"generator\":\"hpcs::obs\",\"timebase\":\"simulated\"}}\n";
    return out_.str();
  }

 private:
  static std::string usec(double seconds) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e6);
    return buf;
  }

  void args(const ho::EventArgs& a) {
    if (a.empty()) return;
    out_ << ",\"args\":{";
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (k) out_ << ',';
      out_ << '"' << ho::json_escape(a[k].first) << "\":\""
           << ho::json_escape(a[k].second) << '"';
    }
    out_ << '}';
  }

  void comma() {
    if (!first_) out_ << ",\n";
    first_ = false;
  }

  std::ostringstream out_;
  bool first_ = true;
};

ho::SpanEvent span(std::string name, int track, double start,
                   double duration, std::uint64_t id) {
  ho::SpanEvent s;
  s.name = std::move(name);
  s.category = "phase";
  s.track = track;
  s.start = start;
  s.duration = duration;
  s.id = id;
  return s;
}

ho::InstantEvent instant(std::string name, int track, double time) {
  ho::InstantEvent i;
  i.name = std::move(name);
  i.category = "fault";
  i.track = track;
  i.time = time;
  return i;
}

}  // namespace

TEST(ChromeTrace, BytesMatchSnprintfReference) {
  ho::TraceData unsorted;
  // Out of canonical order across tracks, starts and durations.
  unsorted.spans.push_back(span("late", 1, 2.5, 0.25, 4));
  unsorted.spans.push_back(span("early", 1, 0.5, 1.0, 3));
  unsorted.spans.push_back(span("track0", 0, 9.0, 1.0, 5));
  // Equal sort keys (track, start, duration, id): input order must hold.
  unsorted.spans.push_back(span("tie-first", 2, 1.0, 1.0, 7));
  unsorted.spans.push_back(span("tie-second", 2, 1.0, 1.0, 7));
  unsorted.spans.push_back(span("tie-third", 2, 1.0, 1.0, 7));
  // Signed zero, tiny, subnormal and huge times.
  unsorted.spans.push_back(span("neg-zero", 3, -0.0, -0.0, 8));
  unsorted.spans.push_back(span("tiny", 3, 1e-12, 4.9e-324, 9));
  unsorted.spans.push_back(span("rounds", 3, 1.0000005e-6, 2.5e-9, 10));
  unsorted.spans.push_back(span("huge", 3, 3.0e9, 1.5e40, 11));
  unsorted.spans.push_back(span("negative", 3, -2.0, 0.125, 12));
  // Names that need escaping, with arguments that do too.
  auto hostile = span("q\"uo\\te\n\x01\x1f", 0, 0.0, 3.0, 1);
  hostile.category = "cat\tegory\r";
  hostile.args = {{"key\"", "va\\lue\b"}, {"plain", "text"}};
  unsorted.spans.push_back(hostile);
  unsorted.instants.push_back(instant("crash", 1, 0.75));
  unsorted.instants.push_back(instant("b-same-time", 0, 0.5));
  unsorted.instants.push_back(instant("a-same-time", 0, 0.5));
  auto marked = instant("retry\x02", 0, -0.0);
  marked.args = {{"attempt", "2"}};
  unsorted.instants.push_back(marked);

  // The same events already in canonical order, as MemorySink::take()
  // returns them.
  ho::TraceData canonical = unsorted;
  canonical.canonicalize();

  std::ostringstream out;
  ho::ChromeTraceWriter writer(out);
  writer.process_name(0, "cell \"0\"\\x");
  writer.add(unsorted, 0, 0.0);
  writer.process_name(7, "offset");
  writer.add(canonical, 7, 123.456789);
  writer.add(ho::TraceData{}, 8, 1.0);
  writer.finish();

  ReferenceChromeTrace reference;
  reference.process_name(0, "cell \"0\"\\x");
  reference.add(unsorted, 0, 0.0);
  reference.process_name(7, "offset");
  reference.add(canonical, 7, 123.456789);
  reference.add(ho::TraceData{}, 8, 1.0);
  EXPECT_EQ(out.str(), reference.finish());
}

TEST(ObsCampaign, HostMetricsCarryPoolDiagnostics) {
  const auto res = observed_campaign(2);
  ASSERT_EQ(res.failed, 0u);
  // Host-side diagnostics live apart from the jobs-invariant aggregate.
  EXPECT_FALSE(res.host_metrics.empty());
  EXPECT_DOUBLE_EQ(res.host_metrics.counter_value("pool/tasks_executed"),
                   8.0);
  EXPECT_DOUBLE_EQ(res.host_metrics.gauge_value("pool/workers").value(),
                   2.0);
  EXPECT_GE(res.host_metrics.gauge_value("pool/max_queue_depth").value(),
            1.0);
  EXPECT_GE(res.host_metrics.gauge_value("pool/utilization").value(), 0.0);
  EXPECT_LE(res.host_metrics.gauge_value("pool/utilization").value(), 1.0);
  const auto cell_s = res.host_metrics.histogram("campaign/cell_host_s");
  ASSERT_TRUE(cell_s.has_value());
  EXPECT_EQ(cell_s->count(), 8u);
  EXPECT_GE(cell_s->min(), 0.0);
  EXPECT_GE(res.host_metrics.gauge_value("campaign/wall_time_s").value(),
            0.0);
  // ...and stay out of every serialized artifact: the aggregate registry
  // carries no pool/* or campaign/*_host_* entries.
  const auto aggregate = metrics_json(res.aggregate_metrics());
  EXPECT_EQ(aggregate.find("pool/"), std::string::npos);
  EXPECT_EQ(aggregate.find("host_s"), std::string::npos);
}

TEST(ObsCampaign, PhaseCsvIsCanonicalAndStable) {
  const auto r = observed_run(cfd_scenario(2));
  std::ostringstream a, b;
  ho::write_phase_csv(a, r.trace);
  ho::write_phase_csv(b, observed_run(cfd_scenario(2)).trace);
  EXPECT_EQ(a.str(), b.str());
  std::istringstream lines(a.str());
  std::string header;
  std::getline(lines, header);
  EXPECT_EQ(header, "track,category,name,start,duration");
}
