// Resilience degradation study: how much wall time each containerization
// solution loses as the fault rate rises, on Lenox (the machine that has
// all four runtimes).
//
// The sweep fixes the *expected number of crashes per job* (lambda) and
// derives the per-node MTBF from each runtime's own fault-free execution
// time, so every runtime faces the same crash pressure and the measured
// differences isolate the recovery path:
//
//   * bare metal / Singularity / Shifter recover by rescheduling and
//     re-mounting from the shared filesystem — cheap;
//   * Docker restarts its root daemon and re-pulls the layer stack into
//     the replacement node's cold local cache — expensive, and the gap
//     widens with lambda.
//
// Registry faults and stragglers ride along at the "heavy" preset rates,
// so deployments exercise the retry-with-backoff path too.  Everything is
// seed-deterministic: the totals printed at the end are stable and the
// smoke_bench_resilience ctest asserts on them.

#include <iostream>

#include "bench_util.hpp"
#include "core/runner.hpp"
#include "fault/spec.hpp"
#include "hw/presets.hpp"
#include "sim/table.hpp"

namespace hs = hpcs::study;
namespace hc = hpcs::container;
namespace hf = hpcs::fault;
using hpcs::bench::emit;
using hpcs::bench::make_scenario;
using hpcs::sim::TextTable;

int main() {
  const auto lenox = hpcs::hw::presets::lenox();
  constexpr int kNodes = 4;
  constexpr int kSteps = 5;
  const double lambdas[] = {0.5, 1.0, 2.0, 4.0};
  const hc::RuntimeKind runtimes[] = {
      hc::RuntimeKind::BareMetal, hc::RuntimeKind::Docker,
      hc::RuntimeKind::Singularity, hc::RuntimeKind::Shifter};

  TextTable t({"runtime", "lambda", "ideal [s]", "effective [s]",
               "overhead", "downtime [s]", "lost work [s]", "crashes",
               "pull retries"});
  hs::Figure fig;
  fig.title =
      "Resilience — wall-time overhead vs expected crashes per job (Lenox)";
  fig.x_label = "expected crashes per job";
  fig.y_label = "overhead fraction (effective/ideal - 1)";

  int total_crashes = 0;
  int total_pull_retries = 0;
  for (auto kind : runtimes) {
    auto scenario = make_scenario(lenox, kind, hs::AppCase::ArteryCfd,
                                  kNodes, 0, 1, kSteps);
    scenario.ranks = kNodes * lenox.node.cpu.cores();
    if (kind != hc::RuntimeKind::BareMetal)
      scenario.image = hs::alya_image(lenox, kind,
                                      hc::BuildMode::SystemSpecific);

    // Fault-free baseline: this runtime's ideal execution time.
    const double ideal =
        hs::ExperimentRunner().run(scenario).total_time;

    hs::Series s{.name = std::string(to_string(kind))};
    for (double lambda : lambdas) {
      hs::RunnerOptions ro;
      ro.faults = hf::FaultSpec::heavy();
      // lambda expected crashes over the ideal run: the job-wide crash
      // rate is nodes/mtbf, so mtbf = nodes * ideal / lambda.
      ro.faults.node_mtbf_s = static_cast<double>(kNodes) * ideal / lambda;
      ro.faults.label = "lambda-" + TextTable::num(lambda, 1);
      // Checkpoint five times per ideal run; a small reschedule delay
      // keeps the runtime-specific re-provisioning visible on top.
      ro.checkpoint.interval_s = ideal / 5.0;
      ro.checkpoint.reschedule_delay_s = 5.0;

      const auto r = hs::ExperimentRunner(ro).run(scenario);
      const auto& rs = r.resilience;
      total_crashes += rs.crashes;
      total_pull_retries += rs.pull_retries;
      t.add_row({std::string(to_string(kind)), TextTable::num(lambda, 1),
                 TextTable::num(rs.ideal_time_s, 3),
                 TextTable::num(rs.effective_time_s, 3),
                 TextTable::num(rs.overhead_fraction(), 3),
                 TextTable::num(rs.downtime_s, 3),
                 TextTable::num(rs.lost_work_s, 3),
                 TextTable::num(rs.crashes, 0),
                 TextTable::num(rs.pull_retries, 0)});
      s.add(TextTable::num(lambda, 1), rs.overhead_fraction());
    }
    fig.series.push_back(std::move(s));
  }

  std::cout << "== Resilience — per-runtime degradation under faults ==\n";
  t.print(std::cout);
  std::cout << '\n';
  emit(fig, "resilience_overhead.csv");

  // Stable, grep-able totals for the smoke_bench_resilience ctest.
  std::cout << "total_crashes=" << total_crashes << "\n";
  std::cout << "total_pull_retries=" << total_pull_retries << "\n";
  return 0;
}
