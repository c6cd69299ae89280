// bench_chaos: the resilience scorecard — correlated-hazard preset x
// mitigation bundle x runtime through the multi-tenant image gateway.
// Every cell replays the same open-loop pull storm under one hazard
// schedule (shared-FS brownouts, gray upstreams, rack bursts, partitions)
// and one defense config (retry-only baseline, circuit breaker + stale
// serving, hedged fetches, deadline budgets), reporting completion rate,
// job-start tail latency, wasted work, and stale-serve fraction.  The
// headline row — hedging+breaker beating retry-only on p99 under the
// brownout preset at completion rate >= baseline — is a gate via
// --check (the smoke_bench_chaos ctest).
//
//   bench_chaos --jobs 4 --csv chaos.csv --check
//
// Cells run under name-derived seeds, so the CSV/trace/metrics artifacts
// are byte-identical for any --jobs count; ChaosGrid.* and the
// smoke_bench_chaos ctest diff exactly that.  The only wall-clock use
// here is the elapsed-time line printed at the end (lint-allowlisted; it
// never reaches an artifact).

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "gateway/chaos.hpp"
#include "sim/table.hpp"

namespace hg = hpcs::gateway;
namespace hc = hpcs::container;
namespace cli = hpcs::study;
using hpcs::sim::TextTable;

namespace {

int usage(std::ostream& out, int code) {
  out << "usage: bench_chaos [options]\n"
         "  --jobs N             TaskPool workers for the grid (default 1)\n"
         "  --csv PATH           scorecard CSV (default results/"
         "chaos_scorecard.csv)\n"
         "  --trace-out PATH     Chrome trace of every cell (enables "
         "observability)\n"
         "  --metrics-out PATH   merged metrics JSON (enables "
         "observability)\n"
         "  --hazards A,B,...    hazard presets (default "
         "none,brownout,gray,storm)\n"
         "  --mitigations A,...  mitigation bundles (default "
         "retry-only,hedge+breaker,full)\n"
         "  --runtimes A,B,...   runtimes (default docker,shifter)\n"
         "  --faults NAME        baseline fault preset every cell shares "
         "(default moderate)\n"
         "  --load X             offered-load multiplier (default 1.5)\n"
         "  --churn X            catalog/shared-cache byte ratio (default "
         "2)\n"
         "  --rate HZ            base arrival rate (default 2)\n"
         "  --tenants N          distinct tenants (default 1000)\n"
         "  --horizon S          arrival horizon seconds (default 3600)\n"
         "  --workers N          conversion workers (default 8)\n"
         "  --seed N             grid seed (default 2026)\n"
         "  --check              verify the headline (hedge+breaker beats "
         "retry-only\n"
         "                       on p99 under brownout without losing "
         "completions)\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  hg::ChaosGridSpec spec;
  int jobs = 1;
  bool check = false;
  std::string csv_path = "results/chaos_scorecard.csv";
  std::string trace_path;
  std::string metrics_path;
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
      } else if (flag == "--hazards") {
        spec.hazards = cli::split_list(value());
      } else if (flag == "--mitigations") {
        spec.mitigations = cli::split_list(value());
      } else if (flag == "--runtimes") {
        spec.runtimes.clear();
        for (const std::string& name : cli::split_list(value()))
          spec.runtimes.push_back(hc::runtime_from_string(name));
      } else if (flag == "--faults") {
        spec.faults = value();
      } else if (flag == "--load") {
        spec.load = cli::parse_double(flag, value());
      } else if (flag == "--churn") {
        spec.churn = cli::parse_double(flag, value());
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
      } else if (flag == "--check") {
        check = true;
      } else {
        throw std::invalid_argument("unknown flag '" + flag + "'");
      }
    }
    spec.validate();
    cli::probe_output_paths({{"--csv", csv_path},
                             {"--trace-out", trace_path},
                             {"--metrics-out", metrics_path}});
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  const bool observe = !trace_path.empty() || !metrics_path.empty();
  const auto wall_start = std::chrono::steady_clock::now();
  const hg::ChaosGridResult grid = hg::run_chaos_grid(spec, jobs, observe);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  TextTable t({"cell", "arrivals", "done%", "p50 [s]", "p99 [s]", "stale%",
               "hedged", "wins", "sheds", "wasted [s]"});
  for (const hg::ChaosCellResult& cell : grid.cells) {
    const hg::GatewayStats& s = cell.stats;
    const double sheds =
        static_cast<double>(s.deadline_sheds + s.breaker_fastfail);
    t.add_row({cell.key, TextTable::num(static_cast<double>(s.arrivals), 0),
               TextTable::num(100.0 * cell.completion_rate(), 1),
               TextTable::num(cell.start_quantile(0.5), 3),
               TextTable::num(cell.start_quantile(0.99), 3),
               TextTable::num(100.0 * cell.stale_fraction(), 1),
               TextTable::num(static_cast<double>(s.hedged_fetches), 0),
               TextTable::num(static_cast<double>(s.hedge_wins), 0),
               TextTable::num(sheds, 0),
               TextTable::num(s.wasted_work_s + s.hedge_wasted_s, 1)});
  }
  std::cout << "== Chaos — resilience scorecard: hazard x mitigation x "
               "runtime ==\n";
  t.print(std::cout);

  if (!cli::save_outputs(
          {{csv_path, [&](std::ostream& o) { grid.write_csv(o); }},
           {trace_path, [&](std::ostream& o) { grid.write_chrome_trace(o); }},
           {metrics_path,
            [&](std::ostream& o) { grid.aggregate_metrics().write_json(o); }}},
          std::cout, std::cerr))
    return 2;
  std::cout << grid.cells.size() << " cells, " << jobs << " jobs, wall "
            << TextTable::num(wall_s, 3) << " s\n";

  if (check) {
    const hg::ChaosHeadline verdict = hg::check_chaos_headline(grid);
    if (!verdict.ok) {
      std::cerr << "headline check FAILED:\n";
      for (const std::string& v : verdict.violations)
        std::cerr << "  " << v << "\n";
      return 1;
    }
    std::cout << "headline check passed: hedge+breaker beats retry-only on "
                 "p99 under brownout at completion rate >= baseline\n";
  }
  return 0;
}
