// Temporal telemetry: quantile-sketch error bounds, window-merge algebra,
// serialization byte-stability, the SLO burn-rate engine, campaign --jobs
// invariance of the windowed artifacts, and the end-to-end brownout
// detection story (injected hazard window -> burn-rate page).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/runner.hpp"
#include "fault/hazard.hpp"
#include "fault/spec.hpp"
#include "gateway/config.hpp"
#include "gateway/service.hpp"
#include "gateway/workload.hpp"
#include "hw/presets.hpp"
#include "obs/collector.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/sketch.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "sim/rng.hpp"

namespace hs = hpcs::study;
namespace hc = hpcs::container;
namespace hf = hpcs::fault;
namespace hg = hpcs::gateway;
namespace ho = hpcs::obs;
namespace hw = hpcs::hw;

namespace {

std::string ts_json(const ho::TimeSeries& ts) {
  std::ostringstream out;
  ts.write_json(out);
  return out.str();
}

/// Dyadic-valued store (all sums exact in binary floating point), so
/// merge reassociation is byte-preserving and the algebra tests can
/// compare serialized bytes instead of approximate numbers.
ho::TimeSeries sample_series(double scale) {
  ho::TimeSeries ts(60.0);
  ts.count("a/counter", 10.0, scale);
  ts.count("a/counter", 130.0, 2.0 * scale);
  ts.count("b/counter", 70.0, scale);
  ts.gauge("a/gauge", 10.0, 8.0 - scale);
  ts.gauge("a/gauge", 200.0, scale);
  ts.observe("a/latency", 15.0, 0.25 * scale);
  ts.observe("a/latency", 15.5, 4.0 * scale);
  ts.observe("a/latency", 75.0, scale);
  return ts;
}

/// ≥ 8-cell campaign with temporal telemetry on, used by the
/// jobs-invariance tests (same shape as test_obs's observed_campaign).
hs::CampaignResult telemetry_campaign(int jobs) {
  hs::CampaignSpec spec;
  spec.name = "ts-invariance";
  spec.cluster(hw::presets::lenox())
      .variant(hc::RuntimeKind::BareMetal)
      .variant(hc::RuntimeKind::Singularity)
      .variant(hc::RuntimeKind::Shifter)
      .variant(hc::RuntimeKind::Docker)
      .nodes({2, 4})
      .steps(3);
  hs::RunnerOptions ropts;
  ropts.observe = true;
  ropts.timeseries_window_s = 10.0;
  return hs::CampaignRunner(
             hs::CampaignOptions{.jobs = jobs, .runner = ropts})
      .run(spec);
}

std::string campaign_ts_csv(const hs::CampaignResult& res) {
  std::ostringstream out;
  res.write_timeseries_csv(out);
  return out.str();
}

}  // namespace

// --- Sketch: error bound, algebra, edges ------------------------------------

TEST(Sketch, QuantilesHoldTheRelativeErrorBoundAcrossSixDecades) {
  // Log-uniform samples spanning 1e-3 .. 1e3 (six decades inside the
  // default layout's range).  The sketch's nearest-rank answer must stay
  // within relative_error_bound() of the exact nearest-rank value.
  const int n = 5000;
  std::vector<double> values;
  values.reserve(n);
  for (int i = 0; i < n; ++i)
    values.push_back(
        std::pow(10.0, -3.0 + 6.0 * static_cast<double>(i) / (n - 1)));

  ho::QuantileSketch sketch;
  for (const double v : values) sketch.add(v);
  ASSERT_EQ(sketch.count(), static_cast<std::uint64_t>(n));

  const double bound = sketch.relative_error_bound();
  EXPECT_NEAR(bound, std::pow(10.0, 0.5 / 64.0) - 1.0, 1e-12);
  for (const double q :
       {0.0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    const auto rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(n))));
    const double exact = values[rank - 1];  // values are already sorted
    const double estimate = sketch.quantile(q);
    EXPECT_LE(std::abs(estimate - exact) / exact, bound + 1e-12)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
  // The exact extremes survive bucketing untouched.
  EXPECT_DOUBLE_EQ(sketch.min(), values.front());
  EXPECT_DOUBLE_EQ(sketch.max(), values.back());
}

TEST(Sketch, MergeMatchesBulkAndReassociates) {
  std::vector<double> values;
  for (int i = 0; i < 999; ++i)
    values.push_back(0.001 + static_cast<double>((i * 67) % 512) / 8.0);

  ho::QuantileSketch bulk;
  for (const double v : values) bulk.add(v);
  // Round-robin split across 7 shards, then fold back together.
  std::vector<ho::QuantileSketch> shards(7);
  for (std::size_t i = 0; i < values.size(); ++i)
    shards[i % shards.size()].add(values[i]);
  ho::QuantileSketch merged;
  for (const auto& shard : shards) merged.merge(shard);

  EXPECT_EQ(merged.count(), bulk.count());
  EXPECT_EQ(merged.buckets(), bulk.buckets());
  EXPECT_DOUBLE_EQ(merged.min(), bulk.min());
  EXPECT_DOUBLE_EQ(merged.max(), bulk.max());
  EXPECT_NEAR(merged.sum(), bulk.sum(), 1e-9 * std::abs(bulk.sum()));
  for (const double q : {0.05, 0.5, 0.95, 0.99})
    EXPECT_DOUBLE_EQ(merged.quantile(q), bulk.quantile(q));

  // (a + b) + c and a + (b + c) and (c + a) + b agree bucket-for-bucket.
  const auto& a = shards[0];
  const auto& b = shards[1];
  const auto& c = shards[2];
  ho::QuantileSketch left = a;
  left.merge(b);
  left.merge(c);
  ho::QuantileSketch bc = b;
  bc.merge(c);
  ho::QuantileSketch right = a;
  right.merge(bc);
  ho::QuantileSketch rotated = c;
  rotated.merge(a);
  rotated.merge(b);
  EXPECT_EQ(left.buckets(), right.buckets());
  EXPECT_EQ(left.buckets(), rotated.buckets());
  EXPECT_EQ(left.count(), right.count());
  EXPECT_DOUBLE_EQ(left.quantile(0.5), rotated.quantile(0.5));
}

TEST(Sketch, EmptyIsTheMergeIdentityAndSingleSampleIsExact) {
  // Empty sketches fold in as no-ops and adopt the other side's layout,
  // so default-constructed accumulators merge cleanly.
  ho::SketchConfig narrow;
  narrow.min_value = 1e-3;
  narrow.max_value = 1e3;
  ho::QuantileSketch configured(narrow);
  configured.add(2.5);
  ho::QuantileSketch empty;
  empty.merge(configured);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.config(), narrow);
  configured.merge(ho::QuantileSketch{});
  EXPECT_EQ(configured.count(), 1u);

  // A single sample answers every quantile exactly (clamped midpoint).
  for (const double q : {0.0, 0.3, 1.0})
    EXPECT_DOUBLE_EQ(configured.quantile(q), 2.5);
  EXPECT_DOUBLE_EQ(configured.mean(), 2.5);

  // Two non-empty sketches with different layouts refuse to merge.
  ho::QuantileSketch other;
  other.add(1.0);
  EXPECT_THROW(configured.merge(other), std::invalid_argument);

  // Empty sketch: every statistic is a defined zero.
  const ho::QuantileSketch blank;
  EXPECT_EQ(blank.count(), 0u);
  EXPECT_DOUBLE_EQ(blank.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(blank.mean(), 0.0);
  EXPECT_DOUBLE_EQ(blank.min(), 0.0);
  EXPECT_DOUBLE_EQ(blank.max(), 0.0);
  EXPECT_DOUBLE_EQ(blank.fraction_above(1.0), 0.0);
}

TEST(Sketch, ClampsOutOfRangeAndDropsNonFinite) {
  ho::QuantileSketch sketch;
  sketch.add(std::nan(""));
  sketch.add(std::numeric_limits<double>::infinity());
  sketch.add(1.0, 0);  // zero weight is a no-op
  EXPECT_EQ(sketch.count(), 0u);

  // Overflow clamps into the top bucket but the exact max survives.
  sketch.add(1e9);
  EXPECT_EQ(sketch.count(), 1u);
  EXPECT_DOUBLE_EQ(sketch.quantile(1.0), 1e9);

  // Underflow lands in bucket 0; the exact min survives the clamp.
  ho::QuantileSketch low;
  low.add(1e-9);
  EXPECT_EQ(low.buckets().count(0), 1u);
  EXPECT_DOUBLE_EQ(low.quantile(0.5), 1e-9);

  ho::SketchConfig bad;
  bad.min_value = 0.0;
  EXPECT_THROW(ho::QuantileSketch{bad}, std::invalid_argument);
  bad.min_value = 2.0;
  bad.max_value = 1.0;
  EXPECT_THROW(ho::QuantileSketch{bad}, std::invalid_argument);
}

// --- TimeSeries: window math, merge algebra, edges --------------------------

TEST(TimeSeriesStore, WindowMathIsExact) {
  const ho::TimeSeries ts(60.0);
  EXPECT_EQ(ts.window_of(0.0), 0);
  EXPECT_EQ(ts.window_of(59.999), 0);
  EXPECT_EQ(ts.window_of(60.0), 1);
  EXPECT_EQ(ts.window_of(-0.5), -1);
  EXPECT_DOUBLE_EQ(ts.window_start(2), 120.0);
  EXPECT_DOUBLE_EQ(ts.window_start(-1), -60.0);
  EXPECT_THROW(ho::TimeSeries(0.0), std::invalid_argument);
  EXPECT_THROW(ho::TimeSeries(-5.0), std::invalid_argument);
}

TEST(TimeSeriesStore, MergeFoldsDeterministicallyAndReassociates) {
  const auto a = sample_series(1.0);
  const auto b = sample_series(2.0);
  const auto c = sample_series(4.0);

  ho::TimeSeries left = a;  // (a + b) + c
  left.merge(b);
  left.merge(c);
  ho::TimeSeries bc = b;  // a + (b + c)
  bc.merge(c);
  ho::TimeSeries right = a;
  right.merge(bc);
  ho::TimeSeries swapped = b;  // b + a + c (commuted)
  swapped.merge(a);
  swapped.merge(c);

  // Dyadic inputs make every fold exact, so the bytes agree under any
  // association or order — stronger than the left-fold determinism the
  // campaign relies on.
  EXPECT_EQ(ts_json(left), ts_json(right));
  EXPECT_EQ(ts_json(left), ts_json(swapped));
  EXPECT_DOUBLE_EQ(left.counter_total("a/counter"), 21.0);
  EXPECT_DOUBLE_EQ(left.counter_value("a/counter", 0), 7.0);
  EXPECT_DOUBLE_EQ(left.counter_value("a/counter", 2), 14.0);
  // Gauges keep the per-window maximum across merges.
  EXPECT_DOUBLE_EQ(left.gauges().at("a/gauge").at(0), 7.0);
  EXPECT_DOUBLE_EQ(left.gauges().at("a/gauge").at(3), 4.0);
  // Sketch windows merge bucket counts.
  EXPECT_EQ(left.sketches().at("a/latency").at(0).count(), 6u);
  EXPECT_EQ(left.sketches().at("a/latency").at(1).count(), 3u);

  // Window-width mismatch between two non-empty stores is an error...
  ho::TimeSeries narrow(30.0);
  narrow.count("x", 0.0);
  EXPECT_THROW(left.merge(narrow), std::invalid_argument);
  // ...but an empty store is the identity in either direction, adopting
  // the non-empty side's layout.
  ho::TimeSeries into_empty;  // default width differs from narrow's
  into_empty.merge(narrow);
  EXPECT_EQ(ts_json(into_empty), ts_json(narrow));
  ho::TimeSeries stable = narrow;
  stable.merge(ho::TimeSeries{});
  EXPECT_EQ(ts_json(stable), ts_json(narrow));
}

TEST(TimeSeriesStore, EmptyWindowsAndUnknownSeriesAreDefinedZeros) {
  ho::TimeSeries ts(60.0);
  EXPECT_TRUE(ts.empty());
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  EXPECT_FALSE(ts.window_span(lo, hi));
  EXPECT_DOUBLE_EQ(ts.counter_total("missing"), 0.0);
  EXPECT_DOUBLE_EQ(ts.counter_value("missing", 3), 0.0);

  // Windows are sparse: only touched windows exist, untouched windows in
  // between read as zero.
  ts.count("hits", 10.0);
  ts.count("hits", 190.0, 3.0);
  EXPECT_FALSE(ts.empty());
  ASSERT_TRUE(ts.window_span(lo, hi));
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 3);
  EXPECT_EQ(ts.counters().at("hits").size(), 2u);
  EXPECT_DOUBLE_EQ(ts.counter_value("hits", 1), 0.0);
  EXPECT_DOUBLE_EQ(ts.counter_value("hits", 3), 3.0);
}

// --- Serialization ----------------------------------------------------------

TEST(TimeSeriesStore, JsonRoundTripsToIdenticalBytes) {
  ho::TimeSeries ts(30.0);
  ts.count("plain/counter", 5.0, 2.0);
  ts.count("quote\"slash\\new\nline", 40.0);
  ts.gauge("tab\tkey", 65.0, -1.5);
  for (int i = 0; i < 32; ++i)
    ts.observe("svc/latency_s", 5.0 + i, 0.01 * (i + 1));

  const std::string first = ts_json(ts);
  const ho::TimeSeries restored =
      ho::TimeSeries::from_json(ho::parse_json(first));
  EXPECT_EQ(ts_json(restored), first);
  EXPECT_DOUBLE_EQ(restored.counter_total("quote\"slash\\new\nline"), 1.0);
  EXPECT_EQ(restored.sketches().at("svc/latency_s").at(0).count(), 25u);

  EXPECT_NE(first.find("\"hpcs-timeseries-v1\""), std::string::npos);
  EXPECT_THROW(ho::TimeSeries::from_json(
                   ho::parse_json("{\"schema\": \"not-a-timeseries\"}")),
               std::invalid_argument);
}

TEST(TimeSeriesStore, CsvIsCanonicalAndStable) {
  const auto ts = sample_series(1.0);
  std::ostringstream a;
  std::ostringstream b;
  ts.write_csv(a, "cell-0");
  sample_series(1.0).write_csv(b, "cell-0");
  EXPECT_EQ(a.str(), b.str());

  std::istringstream lines(a.str());
  std::string header;
  std::getline(lines, header);
  EXPECT_EQ(header,
            "scope,series,kind,window,start_s,value,count,p50,p95,p99,"
            "min,max");
  // Kind-major order: every counter row precedes the first sketch row.
  EXPECT_LT(a.str().find(",counter,"), a.str().find(",sketch,"));
  std::string row;
  std::getline(lines, row);
  EXPECT_EQ(row.rfind("cell-0,a/counter,counter,0,0,", 0), 0u) << row;
}

TEST(TimeSeriesStore, PromExpositionSanitizesNamesAndIsStable) {
  ho::TimeSeries ts(60.0);
  ts.count("gateway/arrivals", 10.0, 3.0);
  ts.gauge("gateway/queue_depth", 70.0, 5.0);
  ts.observe("gateway/start_latency_s", 10.0, 0.25);

  std::ostringstream a;
  std::ostringstream b;
  ho::write_prom_exposition(a, ts);
  ho::write_prom_exposition(b, ts);
  EXPECT_EQ(a.str(), b.str());
  const std::string out = a.str();
  EXPECT_NE(out.find("hpcs_gateway_arrivals_total"), std::string::npos);
  EXPECT_NE(out.find("hpcs_gateway_queue_depth"), std::string::npos);
  EXPECT_NE(out.find("hpcs_gateway_start_latency_s"), std::string::npos);
  EXPECT_NE(out.find("quantile=\"0.95\""), std::string::npos);
  EXPECT_NE(out.find("window=\"0\""), std::string::npos);
  EXPECT_EQ(out.find("gateway/"), std::string::npos);  // slashes sanitized
}

// --- SLO burn-rate engine ---------------------------------------------------

TEST(Slo, ErrorRateBurnPagesOnSustainedBudgetSpendAndCoalesces) {
  ho::TimeSeries ts(60.0);
  for (int w = 0; w < 20; ++w) {
    const double t = 60.0 * w + 1.0;
    const bool hot = w >= 8 && w < 12;  // injected incident: 4 windows
    ts.count("svc/total", t, 100.0);
    ts.count("svc/bad", t, hot ? 50.0 : 0.0);
  }

  ho::SloSpec spec;
  spec.name = "svc-errors";
  spec.kind = ho::SloSpec::Kind::ErrorRate;
  spec.series = "svc/bad";
  spec.total_series = "svc/total";
  spec.objective = 0.99;  // budget 1%, incident burns at 50x
  const ho::SloReport report = ho::evaluate_slo(ts, spec);

  EXPECT_TRUE(report.breached());
  EXPECT_NEAR(report.peak_burn, 50.0, 1e-9);
  EXPECT_DOUBLE_EQ(report.total_bad_fraction, 0.1);
  ASSERT_EQ(report.windows.size(), 20u);
  // Contiguous alerting windows coalesce into one interval.  The fast
  // average (2 windows) confirms at w8; the trailing slow average keeps
  // the page up through w12, one window past the incident.
  ASSERT_EQ(report.alerts.size(), 1u);
  EXPECT_DOUBLE_EQ(report.alerts[0].start_s, 480.0);
  EXPECT_DOUBLE_EQ(report.alerts[0].end_s, 780.0);
  EXPECT_NEAR(report.alerts[0].peak_burn, 50.0, 1e-9);

  // A loose objective caps the burn below the page thresholds: the same
  // incident spends budget 50x slower against a 50% objective, so the
  // same series never alerts.
  spec.objective = 0.5;
  EXPECT_FALSE(ho::evaluate_slo(ts, spec).breached());

  // A healthy run (no bad events at all) never pages either.
  ho::TimeSeries healthy(60.0);
  for (int w = 0; w < 20; ++w) healthy.count("svc/total", 60.0 * w, 100.0);
  spec.objective = 0.99;
  const ho::SloReport calm = ho::evaluate_slo(healthy, spec);
  EXPECT_FALSE(calm.breached());
  EXPECT_DOUBLE_EQ(calm.peak_burn, 0.0);
}

TEST(Slo, LatencyThresholdSplitsSketchWindowsIntoGoodAndBad) {
  ho::TimeSeries ts(60.0);
  for (int w = 0; w < 10; ++w) {
    const bool slow = w == 4 || w == 5;
    for (int i = 0; i < 100; ++i)
      ts.observe("svc/latency_s", 60.0 * w + 0.5 * i, slow ? 100.0 : 0.1);
  }

  ho::SloSpec spec;
  spec.name = "svc-latency";
  spec.kind = ho::SloSpec::Kind::LatencyThreshold;
  spec.series = "svc/latency_s";
  spec.threshold_s = 1.0;
  spec.objective = 0.95;  // budget 5% -> fully-bad window burns at 20
  const ho::SloReport report = ho::evaluate_slo(ts, spec);

  EXPECT_TRUE(report.breached());
  EXPECT_NEAR(report.peak_burn, 20.0, 1e-9);
  ASSERT_EQ(report.alerts.size(), 1u);
  // w4 alone misses the slow gate (20/12 < 2); w5 clears both.  w6's
  // fast average sits a rounding error under the threshold (budget 0.05
  // is not exactly representable), so the page covers exactly w5.
  EXPECT_DOUBLE_EQ(report.alerts[0].start_s, 300.0);
  EXPECT_DOUBLE_EQ(report.alerts[0].end_s, 360.0);

  // An SLO over a series the store never saw reports clean, not a crash.
  spec.series = "svc/absent";
  const ho::SloReport missing = ho::evaluate_slo(ts, spec);
  EXPECT_FALSE(missing.breached());
  EXPECT_DOUBLE_EQ(missing.total_bad_fraction, 0.0);

  ho::SloSpec invalid = spec;
  invalid.objective = 1.0;
  EXPECT_THROW(ho::evaluate_slo(ts, invalid), std::invalid_argument);
}

TEST(Slo, EmitAlertsStampsPairedInstantsOnTheTrace) {
  ho::SloReport report;
  report.spec.name = "svc-latency";
  report.alerts.push_back(ho::SloAlert{120.0, 300.0, 12.5});

  ho::Collector collector(true);
  ho::emit_slo_alerts(collector, 3, report);
  const ho::TraceData data = collector.take_trace();
  ASSERT_EQ(data.instants.size(), 2u);
  EXPECT_EQ(data.instants[0].name, "slo-alert-start");
  EXPECT_EQ(data.instants[0].category, "slo");
  EXPECT_EQ(data.instants[0].track, 3);
  EXPECT_DOUBLE_EQ(data.instants[0].time, 120.0);
  EXPECT_EQ(data.instants[1].name, "slo-alert-end");
  EXPECT_DOUBLE_EQ(data.instants[1].time, 300.0);

  // Disabled collectors swallow the stamps (zero-cost-off contract).
  ho::Collector off;
  ho::emit_slo_alerts(off, 0, report);  // must not throw or record
  EXPECT_FALSE(off.enabled());
}

// --- Collector integration and the zero-cost-off contract -------------------

TEST(CollectorTelemetry, OffByDefaultAndInertWhenDisabled) {
  // A disabled collector ignores enable_timeseries entirely.
  ho::Collector off;
  off.enable_timeseries(60.0);
  EXPECT_FALSE(off.timeseries_enabled());
  off.ts_count("x", 0.0);
  EXPECT_TRUE(off.timeseries().empty());

  // An enabled collector still records no telemetry until opted in, and
  // the ts_* calls leave the trace and metrics streams untouched.
  ho::Collector plain(true);
  ho::Collector telemetry(true);
  telemetry.enable_timeseries(60.0);
  EXPECT_FALSE(plain.timeseries_enabled());
  EXPECT_TRUE(telemetry.timeseries_enabled());
  EXPECT_THROW(telemetry.enable_timeseries(0.0), std::invalid_argument);

  for (ho::Collector* col : {&plain, &telemetry}) {
    col->span(0, "work", "phase", 0.0, 5.0);
    col->count("events");
    col->ts_count("windowed/events", 1.0);
    col->ts_observe("windowed/latency_s", 1.0, 0.5);
  }
  EXPECT_TRUE(plain.timeseries().empty());
  EXPECT_DOUBLE_EQ(telemetry.timeseries().counter_total("windowed/events"),
                   1.0);

  std::ostringstream a;
  std::ostringstream b;
  ho::write_chrome_trace(a, plain.take_trace());
  ho::write_chrome_trace(b, telemetry.take_trace());
  EXPECT_EQ(a.str(), b.str());  // telemetry never leaks into the trace
  std::ostringstream ma;
  std::ostringstream mb;
  plain.metrics().write_json(ma);
  telemetry.metrics().write_json(mb);
  EXPECT_EQ(ma.str(), mb.str());
}

TEST(CollectorTelemetry, RunnerCarriesWindowedSeriesWhenOptedIn) {
  const hs::Scenario scenario{.cluster = hw::presets::lenox(),
                              .runtime = hc::RuntimeKind::BareMetal,
                              .nodes = 4,
                              .ranks = 28,
                              .threads = 4,
                              .time_steps = 5};
  hs::RunnerOptions opts;
  opts.observe = true;
  opts.timeseries_window_s = 10.0;
  const hs::RunResult on = hs::ExperimentRunner(opts).run(scenario);
  EXPECT_FALSE(on.timeseries.empty());
  EXPECT_DOUBLE_EQ(on.timeseries.counter_total("runner/steps"), 5.0);
  EXPECT_DOUBLE_EQ(on.timeseries.counter_total("deploy/nodes_ready"), 4.0);
  EXPECT_EQ(on.timeseries.sketches().count("runner/step_time_s"), 1u);

  // Telemetry defaults off: the plain observed run carries no store, and
  // the numeric results are bit-identical either way.
  hs::RunnerOptions plain;
  plain.observe = true;
  const hs::RunResult off = hs::ExperimentRunner(plain).run(scenario);
  EXPECT_TRUE(off.timeseries.empty());
  EXPECT_EQ(on.total_time, off.total_time);
  EXPECT_EQ(on.energy_j, off.energy_j);
  EXPECT_EQ(on.deployment.total_time, off.deployment.total_time);

  hs::RunnerOptions bad;
  bad.timeseries_window_s = -1.0;
  EXPECT_THROW(hs::ExperimentRunner{bad}, std::invalid_argument);
}

// --- Campaign --jobs invariance ---------------------------------------------

TEST(CampaignTelemetry, TimeseriesArtifactsAreJobsInvariant) {
  const auto serial = telemetry_campaign(1);
  const auto parallel = telemetry_campaign(4);
  ASSERT_EQ(serial.cells.size(), 8u);
  ASSERT_EQ(serial.failed, 0u);
  ASSERT_EQ(parallel.failed, 0u);

  const std::string csv = campaign_ts_csv(serial);
  EXPECT_EQ(csv, campaign_ts_csv(parallel));
  // One scope per cell plus the aggregate scope, all non-trivial.
  for (const auto& cell : serial.cells)
    EXPECT_NE(csv.find(cell.key + ",runner/steps,counter,"),
              std::string::npos)
        << cell.key;
  EXPECT_NE(csv.find("(aggregate),runner/steps,counter,"),
            std::string::npos);

  const ho::TimeSeries aggregate = serial.aggregate_timeseries();
  EXPECT_EQ(ts_json(aggregate), ts_json(parallel.aggregate_timeseries()));
  // 8 cells x 3 steps fold into the aggregate counter.
  EXPECT_DOUBLE_EQ(aggregate.counter_total("runner/steps"), 24.0);
  // The aggregate JSON round-trips (the hpcs-report --timeseries path).
  const ho::TimeSeries reread =
      ho::TimeSeries::from_json(ho::parse_json(ts_json(aggregate)));
  EXPECT_EQ(ts_json(reread), ts_json(aggregate));
}

// --- End to end: injected brownout -> burn-rate page ------------------------

TEST(SloGateway, BrownoutBurnsTheLatencyBudgetOverTheHazardWindow) {
  // A steady pull workload served almost entirely from the shared tier
  // (the local tier is too small to hold any image), with one severe
  // shared-FS brownout hazard class enabled.  The self-calibrating
  // default latency SLO must page, and the page must overlap an injected
  // brownout window — the paper's "detect the incident from telemetry
  // alone" story.
  hg::WorkloadSpec workload;
  workload.base_rate_hz = 2.0;
  workload.load = 1.0;
  workload.diurnal = {1.0};  // stationary traffic, calibration stays tight
  workload.tenants = 200;
  workload.catalog_images = 12;
  workload.image_bytes_min = 1ull << 30;
  workload.image_bytes_max = 2ull << 30;
  workload.horizon_s = 7200.0;

  hg::GatewayConfig config;
  config.local_cache_bytes = 1ull << 20;  // every hit is a shared read

  hf::HazardSpec hazard;
  hazard.enabled = true;
  hazard.label = "test-brownout";
  hazard.brownout_mtbf_s = 6000.0;
  hazard.brownout_duration_s = 300.0;
  hazard.brownout_factor = 50.0;

  const hpcs::sim::Rng root{1234};
  const hg::ImageCatalog catalog(workload, root);
  hg::ArrivalProcess arrivals(workload, root);

  ho::Collector collector(true);
  collector.enable_timeseries(60.0);

  hg::GatewayService service(config, hc::RuntimeKind::Shifter, catalog,
                             hf::FaultInjector(hf::FaultSpec{}, 7),
                             workload.horizon_s, &collector,
                             hf::HazardInjector(hazard, 99));
  while (const auto request = arrivals.next()) service.submit(*request);
  service.finish();

  const auto& brownouts = service.hazards().brownouts;
  ASSERT_FALSE(brownouts.empty());

  const ho::TimeSeries ts = collector.timeseries();
  ASSERT_FALSE(ts.empty());
  const auto reports = ho::evaluate_slos(ts, ho::default_slos(ts));
  const ho::SloReport* latency = nullptr;
  for (const auto& report : reports)
    if (report.spec.name == "gateway-start-latency") latency = &report;
  ASSERT_NE(latency, nullptr);

  EXPECT_TRUE(latency->breached());
  bool overlaps = false;
  for (const auto& alert : latency->alerts)
    for (const auto& window : brownouts)
      overlaps = overlaps ||
                 (alert.start_s < window.end && alert.end_s > window.start);
  EXPECT_TRUE(overlaps) << "no burn-rate page overlapped a brownout window";

  // The detection is honest: outside hazard windows the same SLO holds
  // (the identical service without the hazard never pages).
  hg::ArrivalProcess calm_arrivals(workload, root);
  ho::Collector calm_collector(true);
  calm_collector.enable_timeseries(60.0);
  hg::GatewayService calm(config, hc::RuntimeKind::Shifter, catalog,
                          hf::FaultInjector(hf::FaultSpec{}, 7),
                          workload.horizon_s, &calm_collector);
  while (const auto request = calm_arrivals.next()) calm.submit(*request);
  calm.finish();
  const ho::TimeSeries calm_ts = calm_collector.timeseries();
  for (const auto& report :
       ho::evaluate_slos(calm_ts, ho::default_slos(calm_ts)))
    EXPECT_FALSE(report.breached()) << report.spec.name;
}
