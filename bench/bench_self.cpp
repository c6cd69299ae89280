// bench_self: host-side self-benchmark of the harness's hot paths — the
// continuous-benchmarking half of the trace-analytics layer.  Unlike the
// bench_fig* binaries (which report *simulated* seconds), this one times
// real wall-clock over fixed workloads: the campaign engine at 1 and 4
// jobs, the experiment runner with observability off and on, the metrics
// merge fold, the Chrome-trace serializer, and raw TaskPool churn.
//
//   bench_self --out BENCH_self.json --reps 5
//
// The output ("hpcs-bench-v1") carries median/p90/min/max/mean of N reps
// per benchmark plus host metadata; tools/bench_compare diffs two such
// files with a noise tolerance so CI can gate on regressions.  Host time
// is the entire point here, so this file carries lint allowances for
// wall-clock and hardware_concurrency use (see hpcs-lint's allowlist).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/runner.hpp"
#include "core/thread_pool.hpp"
#include "gateway/breaker.hpp"
#include "gateway/cache.hpp"
#include "gateway/hedge.hpp"
#include "hw/presets.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/sketch.hpp"
#include "obs/timeseries.hpp"
#include "sched/nodes.hpp"
#include "sched/study.hpp"
#include "sim/stats.hpp"

namespace hs = hpcs::study;
namespace hc = hpcs::container;
namespace ho = hpcs::obs;
namespace hw = hpcs::hw;

namespace {

/// Defeats dead-code elimination without perturbing the timed work.
volatile double g_checksum = 0.0;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct BenchResult {
  std::string name;
  hpcs::sim::Samples samples;  ///< seconds per repetition
};

BenchResult run_bench(const std::string& name, int reps,
                      const std::function<void()>& fn) {
  fn();  // warmup: first-touch allocations, lazy statics, code paging
  BenchResult r;
  r.name = name;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    r.samples.add(now_s() - t0);
  }
  return r;
}

hs::CampaignSpec fig1_spec() {
  hs::CampaignSpec spec;
  spec.name = "bench-self-fig1";
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
      .steps(2);
  return spec;
}

void run_campaign(int jobs, bool observe) {
  hs::RunnerOptions ropts;
  ropts.observe = observe;
  const auto res =
      hs::CampaignRunner(hs::CampaignOptions{.jobs = jobs, .runner = ropts})
          .run(fig1_spec());
  double sum = 0.0;
  for (const auto& cell : res.cells)
    if (cell.ok) sum += cell.result.total_time;
  g_checksum = g_checksum + sum;
}

hs::Scenario runner_scenario(int steps) {
  return hs::Scenario{.cluster = hw::presets::lenox(),
                      .runtime = hc::RuntimeKind::BareMetal,
                      .nodes = 4,
                      .ranks = 112,
                      .threads = 1,
                      .time_steps = steps};
}

void run_runner(bool observe) {
  hs::RunnerOptions opts;
  opts.observe = observe;
  const auto r = hs::ExperimentRunner(opts).run(runner_scenario(64));
  g_checksum = g_checksum + r.total_time;
}

void run_metrics_merge() {
  // 512 per-cell-shaped registries folded in index order, the campaign
  // aggregation hot path.
  std::vector<ho::Metrics> registries(512);
  for (std::size_t i = 0; i < registries.size(); ++i) {
    const double x = static_cast<double>(i + 1);
    registries[i].count("runner/steps", x);
    registries[i].count("deploy/pulls", 2.0 * x);
    registries[i].gauge("runner/nodes", x);
    registries[i].observe("runner/step_time_s", 1.0 / x);
    registries[i].observe("runner/step_time_s", 2.0 / x);
    registries[i].observe("deploy/pull_s", 3.0 / x);
  }
  ho::Metrics total;
  for (const ho::Metrics& m : registries) total.merge(m);
  g_checksum = g_checksum + total.counter_value("runner/steps");
}

void run_obs_timeseries_append() {
  // The windowed-store hot path: every gateway/scheduler event lands here
  // when temporal telemetry is on — counter bumps, gauge samples, and
  // sketch observations spread over many windows.
  ho::TimeSeries ts(60.0);
  for (int i = 0; i < 65536; ++i) {
    const double t = static_cast<double>(i) * 0.125;  // ~137 windows
    ts.count("gateway/arrivals", t);
    if (i % 4 == 0) ts.gauge("gateway/queue_depth", t, double(i % 97));
    ts.observe("gateway/start_latency_s", t,
               0.01 + static_cast<double>(i * 31 % 1000) / 100.0);
  }
  g_checksum = g_checksum + ts.counter_total("gateway/arrivals");
}

void run_obs_sketch_merge() {
  // The aggregation hot path behind the campaign's time-series fold: many
  // per-cell sketches merged bucket-by-bucket in index order.
  std::vector<ho::QuantileSketch> sketches(
      256, ho::QuantileSketch(ho::SketchConfig{}));
  for (std::size_t i = 0; i < sketches.size(); ++i)
    for (int k = 0; k < 64; ++k)
      sketches[i].add(
          0.001 +
          static_cast<double>((i * 67 + static_cast<std::size_t>(k) * 31) %
                              4096) /
              40.96);
  ho::QuantileSketch total;
  for (const ho::QuantileSketch& s : sketches) total.merge(s);
  g_checksum = g_checksum + total.quantile(0.99) +
               static_cast<double>(total.count());
}

void run_trace_export(const ho::TraceData& trace) {
  std::ostringstream out;
  ho::write_chrome_trace(out, trace, "bench-self");
  g_checksum = g_checksum + static_cast<double>(out.str().size());
}

void run_gateway_cache_lookup() {
  // The tiered-cache hot path: lookups with LRU recency updates, shared
  // -> local promotion, and byte-capacity eviction under churn.
  hpcs::gateway::TieredCache cache(64ull << 20, 512ull << 20);
  for (int i = 0; i < 16384; ++i) {
    const int image = i * 97 % 256;
    const std::string digest = "sha256:bench-image-" + std::to_string(image);
    const auto bytes =
        static_cast<std::uint64_t>(1 + image % 16) << 20;
    if (cache.lookup(digest, bytes) ==
        hpcs::gateway::CacheTier::Upstream)
      cache.install(digest, bytes);
  }
  const auto& stats = cache.stats();
  g_checksum = g_checksum + static_cast<double>(stats.lookups()) +
               static_cast<double>(stats.shared_evictions);
}

void run_gateway_breaker_fsm() {
  // The circuit-breaker state machine on the fetch dispatch path: mixed
  // success/failure reporting with allow() checks, periodic trips through
  // open -> half-open -> probe, all in simulated time.
  hpcs::gateway::BreakerPolicy policy;
  policy.enabled = true;
  policy.failure_threshold = 3;
  policy.open_duration_s = 10.0;
  hpcs::gateway::CircuitBreaker breaker(policy);
  std::uint64_t allowed = 0;
  for (int i = 0; i < 65536; ++i) {
    const double now = static_cast<double>(i) * 0.25;
    if (breaker.allow(now)) {
      ++allowed;
      // Deterministic failure bursts: every 19th dispatch fails, so the
      // breaker keeps cycling through its whole state machine.
      if (i % 19 < 6)
        breaker.on_failure(now);
      else
        breaker.on_success();
    }
  }
  g_checksum = g_checksum + static_cast<double>(allowed) +
               static_cast<double>(breaker.opens());
}

void run_gateway_hedge_accounting() {
  // Hedge planning and race bookkeeping: quantile maintenance over the
  // observed fetch distribution plus resolve_hedge's outcome accounting.
  hpcs::gateway::HedgePolicy policy;
  policy.enabled = true;
  policy.quantile = 0.75;
  policy.min_samples = 12;
  hpcs::gateway::HedgePlanner planner(policy);
  double total = 0.0;
  for (int i = 0; i < 2048; ++i) {
    const double primary =
        1.0 + static_cast<double>(i * 37 % 100) / 10.0;  // 1..10.9s
    planner.observe(primary);
    if (!planner.ready()) continue;
    const double delay = planner.delay();
    const auto race = hpcs::gateway::resolve_hedge(
        primary, i % 13 != 0, delay, 1.0 + static_cast<double>(i % 7),
        i % 11 != 0);
    total += race.duration + race.wasted_s;
  }
  g_checksum = g_checksum + total +
               static_cast<double>(planner.observed());
}

void run_sched_backfill_scan() {
  // The scheduler's allocation hot path: fits/allocate/release churn over
  // a fragmented 256-node pool, mixing dedicated and core-packed jobs —
  // the inner loop of every backfill scan.
  hpcs::sched::NodePool pool(256, 48);
  std::vector<std::pair<std::vector<int>, int>> held;  // nodes, cores
  std::uint64_t started = 0;
  for (int i = 0; i < 8192; ++i) {
    const bool share = i % 3 == 0;
    const auto mode = share ? hpcs::sched::AllocMode::NodeShare
                            : hpcs::sched::AllocMode::Dedicated;
    const int want_nodes = 1 + i * 7 % 24;
    const int want_cores = share ? 12 + 12 * (i % 3) : 48;
    if (pool.fits(want_nodes, want_cores, mode)) {
      held.emplace_back(pool.allocate(want_nodes, want_cores, mode),
                        want_cores);
      ++started;
    } else if (!held.empty()) {
      // Release the oldest allocation (FIFO drain keeps fragmentation
      // realistic); the next iteration rescans.
      const auto& [nodes, cores] = held.front();
      pool.release(nodes, cores,
                   cores == 48 ? hpcs::sched::AllocMode::Dedicated
                               : hpcs::sched::AllocMode::NodeShare);
      held.erase(held.begin());
    }
  }
  g_checksum = g_checksum + static_cast<double>(started) +
               static_cast<double>(pool.free_cores());
}

void run_sched_event_loop() {
  // A small end-to-end scheduler run: queue + backfill + contended
  // deploys + walltime kills, the whole event loop on one cell.
  hpcs::sched::SchedGridSpec spec;
  spec.policies = {"backfill-dedicated"};
  spec.mixes = {"container-heavy"};
  spec.loads = {2.0};
  spec.workload.jobs = 400;
  const auto cell = hpcs::sched::run_sched_cell(
      spec, "backfill-dedicated", "container-heavy", 2.0, false);
  g_checksum = g_checksum + cell.stats.utilization +
               static_cast<double>(cell.stats.completed);
}

void run_task_pool(int workers) {
  hs::TaskPool pool(workers);
  std::vector<double> slots(2048, 0.0);
  for (std::size_t i = 0; i < slots.size(); ++i)
    pool.submit([&slots, i] {
      double acc = 0.0;
      for (int k = 0; k < 256; ++k)
        acc += static_cast<double>((i + static_cast<std::size_t>(k)) % 7);
      slots[i] = acc;
    });
  pool.wait_idle();
  double sum = 0.0;
  for (const double v : slots) sum += v;
  g_checksum = g_checksum + sum;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void write_bench_json(std::ostream& out,
                      const std::vector<BenchResult>& results, int reps,
                      unsigned hardware_concurrency) {
  out << "{\n  \"schema\": \"hpcs-bench-v1\",\n";
  out << "  \"reps\": " << reps << ",\n";
  out << "  \"host\": {\"hardware_concurrency\": " << hardware_concurrency
      << "},\n";
  out << "  \"benchmarks\": {";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    out << (i ? ",\n" : "\n") << "    \"" << ho::json_escape(r.name)
        << "\": {\"median_s\": " << num(r.samples.median())
        << ", \"p90_s\": " << num(r.samples.quantile(0.9))
        << ", \"min_s\": " << num(r.samples.min())
        << ", \"max_s\": " << num(r.samples.max())
        << ", \"mean_s\": " << num(r.samples.mean())
        << ", \"reps\": " << r.samples.count() << "}";
  }
  out << (results.empty() ? "" : "\n  ") << "}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_self.json";
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::cout << "usage: bench_self [--out PATH] [--reps N]\n";
      return 0;
    } else if (flag == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (flag == "--reps" && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
      if (reps < 1) {
        std::cerr << "error: --reps: must be >= 1\n";
        return 2;
      }
    } else {
      std::cerr << "error: unknown or incomplete flag '" << flag << "'\n";
      return 2;
    }
  }

  const unsigned hardware = std::thread::hardware_concurrency();
  const int pool_workers =
      hardware > 0 ? static_cast<int>(std::min(hardware, 4u)) : 4;

  // One observed run supplies the fixed trace-export workload.
  hs::RunnerOptions observe_opts;
  observe_opts.observe = true;
  const ho::TraceData export_trace =
      hs::ExperimentRunner(observe_opts).run(runner_scenario(16)).trace;

  std::vector<BenchResult> results;
  results.push_back(run_bench("campaign_fig1_jobs1", reps,
                              [] { run_campaign(1, false); }));
  results.push_back(run_bench("campaign_fig1_jobs4", reps,
                              [] { run_campaign(4, false); }));
  results.push_back(run_bench("campaign_fig1_observed_jobs4", reps,
                              [] { run_campaign(4, true); }));
  results.push_back(
      run_bench("runner_cfd_112x1", reps, [] { run_runner(false); }));
  results.push_back(
      run_bench("runner_cfd_112x1_observed", reps, [] { run_runner(true); }));
  results.push_back(
      run_bench("metrics_merge_512", reps, [] { run_metrics_merge(); }));
  results.push_back(run_bench("obs_timeseries_append", reps,
                              [] { run_obs_timeseries_append(); }));
  results.push_back(run_bench("obs_sketch_merge", reps,
                              [] { run_obs_sketch_merge(); }));
  results.push_back(run_bench("trace_export", reps, [&export_trace] {
    run_trace_export(export_trace);
  }));
  results.push_back(run_bench("gateway_cache_lookup", reps,
                              [] { run_gateway_cache_lookup(); }));
  results.push_back(run_bench("gateway_breaker_fsm", reps,
                              [] { run_gateway_breaker_fsm(); }));
  results.push_back(run_bench("gateway_hedge_accounting", reps,
                              [] { run_gateway_hedge_accounting(); }));
  results.push_back(run_bench("sched_backfill_scan", reps,
                              [] { run_sched_backfill_scan(); }));
  results.push_back(run_bench("sched_event_loop", reps,
                              [] { run_sched_event_loop(); }));
  results.push_back(run_bench("task_pool_churn", reps, [pool_workers] {
    run_task_pool(pool_workers);
  }));

  for (const BenchResult& r : results) {
    std::printf("%-32s median %10.6fs  p90 %10.6fs  (%zu reps)\n",
                r.name.c_str(), r.samples.median(),
                r.samples.quantile(0.9), r.samples.count());
  }
  std::printf("checksum %.6g\n", g_checksum);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot write '" << out_path << "'\n";
    return 2;
  }
  write_bench_json(out, results, reps, hardware);
  if (!out.good()) {
    std::cerr << "error: write to '" << out_path << "' failed\n";
    return 2;
  }
  std::cout << "[saved " << out_path << "]\n";
  return 0;
}
