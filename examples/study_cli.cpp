// study_cli: run any single scenario of the study from the command line —
// or, with --campaign, a whole figure sweep in parallel.
//
//   ./build/examples/study_cli --cluster cte-power --runtime singularity
//       --mode self-contained --nodes 16 --app artery-cfd
//
//   ./build/examples/study_cli --campaign --jobs 8
//       --cluster lenox,cte-power --runtime bare-metal,singularity
//       --nodes 2,4 --steps 5
//
// Single-scenario mode prints the result row (avg step time, communication
// split, energy, deployment) and, with --timeline, the per-phase totals
// summed from the run's trace.  Campaign mode prints the per-cell table
// and mirrors it to CSV (per cell) and JSON (summary); results are
// byte-identical for any --jobs count.

#include <iostream>

#include "core/campaign.hpp"
#include "core/cli.hpp"
#include "core/runner.hpp"
#include "obs/export.hpp"
#include "sim/table.hpp"

namespace hs = hpcs::study;
using hpcs::sim::TextTable;

namespace {

int run_campaign(const hs::CliOptions& opts) {
  const auto spec = hs::to_campaign_spec(opts);
  const hs::CampaignRunner runner(
      hs::CampaignOptions{.jobs = opts.jobs,
                          .runner = hs::to_runner_options(opts),
                          .cell_retries = opts.cell_retries});
  const auto res = runner.run(spec);
  res.print(std::cout);

  if (!hs::save_outputs(
          {{opts.csv_path, [&](std::ostream& o) { res.write_csv(o); }},
           {opts.json_path, [&](std::ostream& o) { res.write_json(o); }},
           {opts.trace_path,
            [&](std::ostream& o) { res.write_chrome_trace(o); }},
           {opts.metrics_path,
            [&](std::ostream& o) { res.aggregate_metrics().write_json(o); }},
           {opts.timeseries_path,
            [&](std::ostream& o) { res.write_timeseries_csv(o); }},
           {hs::timeseries_json_path(opts.timeseries_path),
            [&](std::ostream& o) {
              res.aggregate_timeseries().write_json(o);
            }}},
          std::cout, std::cerr))
    return 1;

  // Failed cells are part of a campaign's normal output; only a campaign
  // with no successful cell at all is a usage error.
  return res.succeeded == 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  hs::CliOptions opts;
  try {
    opts = hs::parse_cli(
        std::span<const char* const>(argv + 1,
                                     static_cast<std::size_t>(argc - 1)));
    // Fail fast on unwritable output destinations: a typo'd --trace-out
    // should abort here, not after a full campaign run.
    if (!opts.help) hs::validate_output_paths(opts);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
  if (opts.help) {
    std::cout << hs::cli_usage();
    return 0;
  }

  try {
    if (opts.campaign) return run_campaign(opts);
    const auto scenario = hs::to_scenario(opts);
    const hs::RunnerOptions ropts = hs::to_runner_options(opts);
    const hs::ExperimentRunner runner(ropts);
    const auto r = runner.run(scenario);

    std::cout << "scenario: " << r.label << "\n\n";
    TextTable t({"metric", "value"});
    t.add_row({"avg step time [s]", TextTable::num(r.avg_step_time, 5)});
    t.add_row({"campaign time [s]", TextTable::num(r.total_time, 4)});
    t.add_row({"step stddev [s]", TextTable::num(r.step_times.stddev(), 6)});
    t.add_row({"compute / step [s]", TextTable::num(r.compute_time, 5)});
    t.add_row({"halo / step [s]", TextTable::num(r.halo_time, 5)});
    t.add_row({"reductions / step [s]",
               TextTable::num(r.reduction_time, 5)});
    t.add_row({"communication fraction",
               TextTable::num(r.comm_fraction, 3)});
    t.add_row({"energy [kJ]", TextTable::num(r.energy_j / 1e3, 3)});
    t.add_row({"avg node power [W]", TextTable::num(r.avg_node_power_w, 0)});
    t.add_row({"deployment [s]",
               TextTable::num(r.deployment.total_time, 3)});
    t.print(std::cout);

    if (ropts.faults.enabled) {
      const auto& rs = r.resilience;
      std::cout << "\nresilience under '" << ropts.faults.label << "':\n";
      TextTable rt({"metric", "value"});
      rt.add_row({"ideal time [s]", TextTable::num(rs.ideal_time_s, 3)});
      rt.add_row({"effective time [s]",
                  TextTable::num(rs.effective_time_s, 3)});
      rt.add_row({"overhead", TextTable::num(rs.overhead_fraction(), 3)});
      rt.add_row({"crashes", TextTable::num(rs.crashes, 0)});
      rt.add_row({"checkpoints", TextTable::num(rs.checkpoints, 0)});
      rt.add_row({"downtime [s]", TextTable::num(rs.downtime_s, 3)});
      rt.add_row({"lost work [s]", TextTable::num(rs.lost_work_s, 3)});
      rt.add_row({"checkpoint overhead [s]",
                  TextTable::num(rs.checkpoint_overhead_s, 3)});
      rt.add_row({"pull retries", TextTable::num(rs.pull_retries, 0)});
      rt.add_row({"retry backoff [s]",
                  TextTable::num(rs.retry_backoff_s, 3)});
      rt.add_row({"straggler multiplier",
                  TextTable::num(rs.straggler_multiplier, 3)});
      rt.add_row({"link multiplier",
                  TextTable::num(rs.link_multiplier, 3)});
      rt.print(std::cout);
    }

    if (!hs::save_outputs(
            {{opts.trace_path,
              [&](std::ostream& o) {
                hpcs::obs::write_chrome_trace(o, r.trace, r.label);
              }},
             {opts.metrics_path,
              [&](std::ostream& o) { r.metrics.write_json(o); }},
             {opts.timeseries_path,
              [&](std::ostream& o) { r.timeseries.write_csv(o, r.label); }},
             {hs::timeseries_json_path(opts.timeseries_path),
              [&](std::ostream& o) { r.timeseries.write_json(o); }}},
            std::cout, std::cerr))
      return 1;

    if (opts.timeline) {
      // One row per phase the run recorded, in the solver's step order;
      // each total sums that phase's spans in the trace's canonical order.
      TextTable pt({"phase", "total [s]"});
      for (const char* phase :
           {"compute", "halo", "reduction", "interface"}) {
        double total = 0.0;
        bool seen = false;
        for (const auto& span : r.trace.spans) {
          if (span.category != "phase" || span.name != phase) continue;
          total += span.duration;
          seen = true;
        }
        if (seen) pt.add_row({phase, TextTable::num(total, 5)});
      }
      if (pt.rows() > 0) {
        std::cout << "\nphase totals over the campaign:\n";
        pt.print(std::cout);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
