// bench_gateway: tail latency of "job can start" through the multi-tenant
// image gateway, swept over offered load x cache churn x fault preset per
// containerization runtime.  This is the deployment-cost story at service
// scale: pull storms hit a registry front-end with single-flight dedup, a
// bounded conversion-worker pool, a tiered node-local/shared-FS cache,
// and admission control — and the figure shows where each runtime's
// conversion pipeline starts to queue, shed, or collapse.
//
//   bench_gateway --jobs 4 --csv gateway.csv --trace-out gateway.trace.json
//
// Every cell runs under a name-derived seed, so the CSV (p50/p95/p99 of
// start latency per cell) is byte-identical for any --jobs count;
// GatewayStudy.* and the smoke_bench_gateway ctest diff exactly that.
// The only wall-clock use here is the elapsed-time line printed at the
// end (lint-allowlisted; it never reaches an artifact).

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "gateway/study.hpp"
#include "sim/table.hpp"

namespace hg = hpcs::gateway;
namespace hc = hpcs::container;
namespace cli = hpcs::study;
using hpcs::sim::TextTable;

namespace {

int usage(std::ostream& out, int code) {
  out << "usage: bench_gateway [options]\n"
         "  --jobs N             TaskPool workers for the grid (default 1)\n"
         "  --csv PATH           tail-latency CSV (default results/"
         "gateway_tail_latency.csv)\n"
         "  --trace-out PATH     Chrome trace of every cell (enables "
         "observability)\n"
         "  --metrics-out PATH   merged metrics JSON (enables "
         "observability)\n"
         "  --timeseries-out PATH windowed time-series CSV (enables "
         "observability + temporal telemetry)\n"
         "  --timeseries-json PATH aggregate hpcs-timeseries-v1 JSON "
         "(hpcs-report --timeseries/--slo input)\n"
         "  --window S           time-series window width in simulated "
         "seconds (default 60)\n"
         "  --loads A,B,...      offered-load multipliers (default "
         "0.5,1,2,4)\n"
         "  --churns A,B,...     catalog/shared-cache byte ratios (default "
         "0.5,2,8)\n"
         "  --faults A,B,...     fault presets (default none,moderate)\n"
         "  --runtimes A,B,...   runtimes (default "
         "docker,singularity,shifter)\n"
         "  --rate HZ            base arrival rate (default 2)\n"
         "  --tenants N          distinct tenants (default 1000)\n"
         "  --horizon S          arrival horizon seconds (default 3600)\n"
         "  --workers N          conversion workers (default 8)\n"
         "  --seed N             grid seed (default 42)\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  hg::GatewayGridSpec spec;
  int jobs = 1;
  std::string csv_path = "results/gateway_tail_latency.csv";
  std::string trace_path;
  std::string metrics_path;
  std::string timeseries_path;
  std::string timeseries_json_path;
  double window_s = 60.0;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc)
          throw std::invalid_argument(flag + ": missing value");
        return argv[++i];
      };
      if (flag == "--help" || flag == "-h") {
        return usage(std::cout, 0);
      } else if (flag == "--jobs") {
        jobs = cli::parse_int(flag, value());
        if (jobs < 1) throw std::invalid_argument("--jobs: must be >= 1");
      } else if (flag == "--csv") {
        csv_path = value();
        if (csv_path.empty()) throw std::invalid_argument("--csv: empty path");
      } else if (flag == "--trace-out") {
        trace_path = value();
      } else if (flag == "--metrics-out") {
        metrics_path = value();
      } else if (flag == "--timeseries-out") {
        timeseries_path = value();
      } else if (flag == "--timeseries-json") {
        timeseries_json_path = value();
      } else if (flag == "--window") {
        window_s = cli::parse_double(flag, value());
        if (window_s <= 0)
          throw std::invalid_argument("--window: must be > 0");
      } else if (flag == "--loads") {
        spec.loads = cli::parse_double_list(flag, value());
      } else if (flag == "--churns") {
        spec.churns = cli::parse_double_list(flag, value());
      } else if (flag == "--faults") {
        spec.faults = cli::split_list(value());
      } else if (flag == "--runtimes") {
        spec.runtimes.clear();
        for (const std::string& name : cli::split_list(value()))
          spec.runtimes.push_back(hc::runtime_from_string(name));
      } else if (flag == "--rate") {
        spec.workload.base_rate_hz = cli::parse_double(flag, value());
      } else if (flag == "--tenants") {
        spec.workload.tenants = cli::parse_int(flag, value());
      } else if (flag == "--horizon") {
        spec.workload.horizon_s = cli::parse_double(flag, value());
      } else if (flag == "--workers") {
        spec.config.workers = cli::parse_int(flag, value());
      } else if (flag == "--seed") {
        spec.seed = cli::parse_u64(flag, value());
      } else {
        throw std::invalid_argument("unknown flag '" + flag + "'");
      }
    }
    if (!timeseries_path.empty() || !timeseries_json_path.empty())
      spec.timeseries_window_s = window_s;
    spec.validate();
    cli::probe_output_paths({{"--csv", csv_path},
                             {"--trace-out", trace_path},
                             {"--metrics-out", metrics_path},
                             {"--timeseries-out", timeseries_path},
                             {"--timeseries-json", timeseries_json_path}});
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  const bool observe = !trace_path.empty() || !metrics_path.empty() ||
                       !timeseries_path.empty() ||
                       !timeseries_json_path.empty();
  const auto wall_start = std::chrono::steady_clock::now();
  const hg::GatewayGridResult grid =
      hg::run_gateway_grid(spec, jobs, observe);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  TextTable t({"cell", "arrivals", "served", "shed", "hit%", "p50 [s]",
               "p95 [s]", "p99 [s]"});
  for (const hg::GatewayCellResult& cell : grid.cells) {
    const hg::GatewayStats& s = cell.stats;
    const double shed = static_cast<double>(
        s.rejected_queue + s.rejected_admission + s.failed);
    const double hits =
        static_cast<double>(s.cache.local_hits + s.cache.shared_hits);
    const double lookups =
        std::max(1.0, static_cast<double>(s.cache.lookups()));
    const auto q = [&](double p) {
      return s.start_latency.empty() ? 0.0 : s.start_latency.quantile(p);
    };
    t.add_row({cell.key, TextTable::num(static_cast<double>(s.arrivals), 0),
               TextTable::num(static_cast<double>(s.completed), 0),
               TextTable::num(shed, 0),
               TextTable::num(100.0 * hits / lookups, 1),
               TextTable::num(q(0.5), 3), TextTable::num(q(0.95), 3),
               TextTable::num(q(0.99), 3)});
  }
  std::cout << "== Gateway — job-start tail latency vs load x churn x "
               "faults ==\n";
  t.print(std::cout);

  if (!cli::save_outputs(
          {{csv_path, [&](std::ostream& o) { grid.write_csv(o); }},
           {trace_path, [&](std::ostream& o) { grid.write_chrome_trace(o); }},
           {metrics_path,
            [&](std::ostream& o) { grid.aggregate_metrics().write_json(o); }},
           {timeseries_path,
            [&](std::ostream& o) { grid.write_timeseries_csv(o); }},
           {timeseries_json_path, [&](std::ostream& o) {
              grid.aggregate_timeseries().write_json(o);
            }}},
          std::cout, std::cerr))
    return 2;
  std::cout << grid.cells.size() << " cells, " << jobs << " jobs, wall "
            << TextTable::num(wall_s, 3) << " s\n";
  return 0;
}
