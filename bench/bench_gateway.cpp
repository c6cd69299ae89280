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
// The shared flags, artifacts and elapsed-time line are grid_cli.hpp's.

#include <iostream>
#include <string>

#include "grid_cli.hpp"
#include "gateway/study.hpp"
#include "sim/table.hpp"

namespace hg = hpcs::gateway;
namespace hc = hpcs::container;
namespace cli = hpcs::study;
using hpcs::sim::TextTable;

int main(int argc, char** argv) {
  hg::GatewayGridSpec spec;
  hpcs::bench::GridCli command(
      spec,
      {.program = "bench_gateway",
       .csv_what = "tail-latency CSV",
       .csv_default = "results/gateway_tail_latency.csv",
       .axis_help =
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
           "  --workers N          conversion workers (default 8)\n"});
  const auto axis = [&](const std::string& flag, const auto& value) {
    if (flag == "--loads") {
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
    } else {
      return false;
    }
    return true;
  };
  if (const auto code = command.parse(argc, argv, axis)) return *code;

  const hg::GatewayGridResult grid = command.run([&](int jobs, bool observe) {
    return hg::run_gateway_grid(spec, jobs, observe);
  });

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

  return command.save(grid) ? 0 : 2;
}
