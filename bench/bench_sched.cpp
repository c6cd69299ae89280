// bench_sched: cluster utilization and job-start tail latency through the
// batch workload manager, swept over scheduling policy x runtime mix x
// offered load.  This is the paper's runtime comparison at facility
// scale: thousands of queued Alya jobs whose container deployments
// contend for the image gateway, the shared filesystem, and the fabric —
// and the figure shows what each policy and runtime mix costs in queue
// wait, deploy time, and wasted allocation.
//
//   bench_sched --jobs 4 --csv sched.csv --trace-out sched.trace.json
//
// Every cell runs under a name-derived seed, so the CSV (utilization +
// p50/p95/p99 of submit -> compute start per cell) is byte-identical for
// any --jobs count (SchedGrid.ArtifactsAreByteIdenticalAcrossJobsCounts).
// The only wall-clock use here is the elapsed-time line printed at the end
// (lint-allowlisted; it never reaches an artifact).

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "sched/study.hpp"
#include "sim/table.hpp"

namespace hs = hpcs::sched;
namespace cli = hpcs::study;
using hpcs::sim::TextTable;

namespace {

int usage(std::ostream& out, int code) {
  out << "usage: bench_sched [options]\n"
         "  --jobs N             TaskPool workers for the grid (default 1)\n"
         "  --csv PATH           utilization + tail-latency CSV (default "
         "results/sched_grid.csv)\n"
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
         "  --policies A,B,...   scheduling policies (default "
         "fifo-dedicated,backfill-dedicated,backfill-share)\n"
         "  --mixes A,B,...      runtime mixes (default "
         "bare-metal,mixed,container-heavy)\n"
         "  --loads A,B,...      offered-load multipliers (default "
         "0.5,1,2)\n"
         "  --faults NAME        fault preset (default none)\n"
         "  --hazards NAME       hazard preset (default none)\n"
         "  --njobs N            jobs submitted per cell (default 2000)\n"
         "  --nodes N            cluster nodes (default 64)\n"
         "  --cores N            cores per node (default 48)\n"
         "  --rate HZ            mean submits/s at load 1 (default 0.004,\n"
         "                       ~saturating the default cluster)\n"
         "  --no-gateway         uncontended deploys (the control)\n"
         "  --seed N             grid seed (default 42)\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  hs::SchedGridSpec spec;
  int jobs = 1;
  std::string csv_path = "results/sched_grid.csv";
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
      } else if (flag == "--policies") {
        spec.policies = cli::split_list(value());
      } else if (flag == "--mixes") {
        spec.mixes = cli::split_list(value());
      } else if (flag == "--loads") {
        spec.loads = cli::parse_double_list(flag, value());
      } else if (flag == "--faults") {
        spec.faults = value();
      } else if (flag == "--hazards") {
        spec.hazards = value();
      } else if (flag == "--njobs") {
        spec.workload.jobs = cli::parse_int(flag, value());
      } else if (flag == "--nodes") {
        spec.config.nodes = cli::parse_int(flag, value());
      } else if (flag == "--cores") {
        spec.config.cores_per_node = cli::parse_int(flag, value());
      } else if (flag == "--rate") {
        spec.workload.arrival_rate_hz = cli::parse_double(flag, value());
      } else if (flag == "--no-gateway") {
        spec.gateway_enabled = false;
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
  const hs::SchedGridResult grid = hs::run_sched_grid(spec, jobs, observe);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  TextTable t({"cell", "done", "fail", "shed", "bf", "util%", "wait p50 [s]",
               "start p50 [s]", "p95 [s]", "p99 [s]"});
  for (const hs::SchedCellResult& cell : grid.cells) {
    const hs::SchedStats& s = cell.stats;
    const auto q = [&](double p) {
      return s.start_latency_s.empty() ? 0.0 : s.start_latency_s.quantile(p);
    };
    t.add_row({cell.key, TextTable::num(static_cast<double>(s.completed), 0),
               TextTable::num(static_cast<double>(s.failed), 0),
               TextTable::num(static_cast<double>(s.shed), 0),
               TextTable::num(static_cast<double>(s.backfill_starts), 0),
               TextTable::num(100.0 * s.utilization, 1),
               TextTable::num(s.queue_wait_s.empty()
                                  ? 0.0
                                  : s.queue_wait_s.quantile(0.5),
                              1),
               TextTable::num(q(0.5), 1), TextTable::num(q(0.95), 1),
               TextTable::num(q(0.99), 1)});
  }
  std::cout << "== Scheduler — utilization + job-start tail latency vs "
               "policy x mix x load ==\n";
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
