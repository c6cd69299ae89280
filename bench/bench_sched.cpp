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
// The shared flags, artifacts and elapsed-time line are grid_cli.hpp's.

#include <iostream>
#include <string>

#include "grid_cli.hpp"
#include "sched/study.hpp"
#include "sim/table.hpp"

namespace hs = hpcs::sched;
namespace cli = hpcs::study;
using hpcs::sim::TextTable;

int main(int argc, char** argv) {
  hs::SchedGridSpec spec;
  hpcs::bench::GridCli command(
      spec,
      {.program = "bench_sched",
       .csv_what = "utilization + tail-latency CSV",
       .csv_default = "results/sched_grid.csv",
       .axis_help =
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
           "  --no-gateway         uncontended deploys (the control)\n"});
  const auto axis = [&](const std::string& flag, const auto& value) {
    if (flag == "--policies") {
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
    } else {
      return false;
    }
    return true;
  };
  if (const auto code = command.parse(argc, argv, axis)) return *code;

  const hs::SchedGridResult grid = command.run([&](int jobs, bool observe) {
    return hs::run_sched_grid(spec, jobs, observe);
  });

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

  return command.save(grid) ? 0 : 2;
}
