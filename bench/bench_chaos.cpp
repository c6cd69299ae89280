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
// smoke_bench_chaos ctest diff exactly that.  The shared flags, artifacts
// and elapsed-time line are grid_cli.hpp's.

#include <iostream>
#include <string>

#include "grid_cli.hpp"
#include "gateway/chaos.hpp"
#include "sim/table.hpp"

namespace hg = hpcs::gateway;
namespace hc = hpcs::container;
namespace cli = hpcs::study;
using hpcs::sim::TextTable;

int main(int argc, char** argv) {
  hg::ChaosGridSpec spec;
  bool check = false;
  hpcs::bench::GridCli command(
      spec,
      {.program = "bench_chaos",
       .csv_what = "scorecard CSV",
       .csv_default = "results/chaos_scorecard.csv",
       .axis_help =
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
           "  --workers N          conversion workers (default 8)\n",
       .tail_help =
           "  --check              verify the headline (hedge+breaker beats "
           "retry-only\n"
           "                       on p99 under brownout without losing "
           "completions)\n"});
  const auto axis = [&](const std::string& flag, const auto& value) {
    if (flag == "--hazards") {
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
    } else if (flag == "--check") {
      check = true;
    } else {
      return false;
    }
    return true;
  };
  if (const auto code = command.parse(argc, argv, axis)) return *code;

  const hg::ChaosGridResult grid = command.run([&](int jobs, bool observe) {
    return hg::run_chaos_grid(spec, jobs, observe);
  });

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

  if (!command.save(grid)) return 2;

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
