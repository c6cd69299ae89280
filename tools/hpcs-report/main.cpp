// hpcs-report: trace analytics over the campaign/runner Chrome traces,
// plus windowed time-series / SLO analytics over hpcs-timeseries-v1 JSON.
//
//   hpcs-report trace.json                  # attribution table + checks
//   hpcs-report --csv attr.csv trace.json   # deterministic attribution CSV
//   hpcs-report --json attr.json trace.json # ... and JSON (with checks)
//   hpcs-report --critical-path cp.csv trace.json
//   hpcs-report --check trace.json          # exit 1 on violated claims
//   hpcs-report --timeseries ts.json        # windowed series tables
//   hpcs-report --timeseries ts.json --slo  # SLO verdicts; exit 1 on breach
//   hpcs-report --timeseries ts.json --prom metrics.prom
//   hpcs-report --check --check-json checks.json trace.json
//
// The attribution CSV/JSON are byte-identical across the campaign's
// --jobs counts (the trace itself is), so both are golden-testable; so are
// the time-series tables and SLO verdicts (the store merges
// deterministically).  Exit codes: 0 ok, 1 = a --check assertion failed or
// an --slo objective breached, 2 = usage/IO error.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "sim/table.hpp"

namespace ho = hpcs::obs;

namespace {

constexpr const char* kUsage =
    R"(usage: hpcs-report [options] [TRACE.json]
  TRACE.json            Chrome trace from --trace-out ("-" = stdin)
  --csv PATH            write the attribution table as CSV ("-" = stdout)
  --json PATH           write attribution + checks as JSON ("-" = stdout)
  --critical-path PATH  write the critical path as CSV ("-" = stdout)
  --pid N               critical-path process (default: longest root span)
  --check               evaluate paper-consistency checks; exit 1 on fail
  --check-json PATH     write every verdict (checks and/or SLOs) as
                        hpcs-checks-v1 JSON ("-" = stdout)
  --tolerance F         comm-parity tolerance (default 0.05)
  --timeseries PATH     hpcs-timeseries-v1 JSON (the PATH.json beside a
                        --timeseries-out PATH); prints the windowed
                        series tables
  --slo                 evaluate SLO burn-rate objectives over the
                        --timeseries store; exit 1 on any breach
  --slo-threshold F     override the latency-SLO threshold [s]
  --slo-objective F     override every SLO objective (0 < F < 1)
  --prom PATH           write the --timeseries store in Prometheus
                        exposition format ("-" = stdout)
  --help                this text
)";

bool write_output(const std::string& path,
                  const std::function<void(std::ostream&)>& writer) {
  if (path == "-") {
    writer(std::cout);
    return true;
  }
  std::ofstream out(path);
  if (out) writer(out);
  out.close();  // a failed open, write or final flush all fail here
  return !out.fail();
}

std::string fmt(double v, int digits) {
  return hpcs::sim::TextTable::num(v, digits);
}

void print_table(std::ostream& out,
                 const std::vector<ho::CellReport>& cells) {
  hpcs::sim::TextTable t({"cell", "runtime", "container [s]", "comm [s]",
                          "compute [s]", "fault [s]", "other [s]",
                          "total [s]", "comm frac"});
  for (const ho::CellReport& cell : cells) {
    if (cell.failed) {
      t.add_row({cell.key, cell.runtime_class, "-", "-", "-", "-", "-",
                 "-", "-"});
      continue;
    }
    t.add_row({cell.key, cell.runtime_class,
               fmt(cell.attr.container_overhead_s, 4),
               fmt(cell.attr.comm_s, 4), fmt(cell.attr.compute_s, 4),
               fmt(cell.attr.fault_recovery_s, 4),
               fmt(cell.attr.other_s, 4), fmt(cell.attr.total_s(), 4),
               fmt(ho::exec_comm_fraction(cell.attr), 3)});
  }
  const ho::Attribution sum = ho::aggregate(cells);
  t.add_row({"(aggregate)", "", fmt(sum.container_overhead_s, 4),
             fmt(sum.comm_s, 4), fmt(sum.compute_s, 4),
             fmt(sum.fault_recovery_s, 4), fmt(sum.other_s, 4),
             fmt(sum.total_s(), 4), fmt(ho::exec_comm_fraction(sum), 3)});
  t.print(out);
}

/// Per-series summary of the windowed store: populated windows, windowed
/// totals, and — for sketch series — quantiles of the all-window merge.
void print_timeseries(std::ostream& out, const ho::TimeSeries& ts) {
  out << "== time series (window " << fmt(ts.window_s(), 0) << " s) ==\n";
  if (ts.empty()) {
    out << "(empty store)\n";
    return;
  }
  hpcs::sim::TextTable t({"series", "kind", "windows", "total", "p50 [s]",
                          "p95 [s]", "p99 [s]", "max"});
  for (const auto& [name, windows] : ts.counters()) {
    double total = 0.0;
    for (const auto& [w, v] : windows) total += v;
    t.add_row({name, "counter", fmt(static_cast<double>(windows.size()), 0),
               fmt(total, 0), "-", "-", "-", "-"});
  }
  for (const auto& [name, windows] : ts.gauges()) {
    double peak = 0.0;
    for (const auto& [w, v] : windows) peak = std::max(peak, v);
    t.add_row({name, "gauge", fmt(static_cast<double>(windows.size()), 0),
               "-", "-", "-", "-", fmt(peak, 4)});
  }
  for (const auto& [name, windows] : ts.sketches()) {
    ho::QuantileSketch all;
    for (const auto& [w, sketch] : windows) all.merge(sketch);
    t.add_row({name, "sketch", fmt(static_cast<double>(windows.size()), 0),
               fmt(static_cast<double>(all.count()), 0),
               fmt(all.quantile(0.5), 4), fmt(all.quantile(0.95), 4),
               fmt(all.quantile(0.99), 4), fmt(all.max(), 4)});
  }
  t.print(out);
}

/// Per-window burn-rate table plus the verdict line for one SLO.
void print_slo_report(std::ostream& out, const ho::SloReport& report) {
  out << "\n== SLO " << report.spec.name << " ==\n";
  hpcs::sim::TextTable t({"window", "start [s]", "good", "bad", "burn",
                          "fast", "slow", "alert"});
  for (const ho::SloWindowRow& row : report.windows)
    t.add_row({std::to_string(row.window), fmt(row.start_s, 0),
               fmt(row.good, 0), fmt(row.bad, 0), fmt(row.burn, 3),
               fmt(row.fast_rate, 3), fmt(row.slow_rate, 3),
               row.alerting ? "PAGE" : ""});
  t.print(out);
  for (const ho::SloAlert& alert : report.alerts)
    out << "alert: [" << fmt(alert.start_s, 0) << ", " << fmt(alert.end_s, 0)
        << "] s, peak burn " << fmt(alert.peak_burn, 3) << "\n";
  out << "verdict: " << (report.breached() ? "BREACHED" : "ok")
      << " (peak burn " << fmt(report.peak_burn, 3) << ", bad fraction "
      << fmt(report.total_bad_fraction, 5) << ")\n";
}

/// One CheckOutcome row per SLO so --check-json covers SLO verdicts too.
ho::CheckOutcome slo_outcome(const ho::SloReport& report) {
  ho::CheckOutcome outcome;
  outcome.id = "slo:" + report.spec.name;
  outcome.description = "burn-rate objective holds for " + report.spec.name;
  outcome.passed = !report.breached();
  outcome.measured = report.peak_burn;
  outcome.has_measured = true;
  std::ostringstream detail;
  detail << report.alerts.size() << " alert(s), peak burn "
         << fmt(report.peak_burn, 3) << ", bad fraction "
         << fmt(report.total_bad_fraction, 5);
  outcome.detail = detail.str();
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string csv_path;
  std::string json_path;
  std::string critical_path_path;
  std::string check_json_path;
  std::string timeseries_path;
  std::string prom_path;
  int pid = -1;
  bool check = false;
  bool slo = false;
  double slo_threshold = 0.0;  ///< 0: keep the self-calibrated default
  double slo_objective = 0.0;  ///< 0: keep each spec's default
  ho::CheckOptions check_options;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "error: " << flag << ": missing value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (flag == "--csv") {
      csv_path = value();
    } else if (flag == "--json") {
      json_path = value();
    } else if (flag == "--critical-path") {
      critical_path_path = value();
    } else if (flag == "--pid") {
      pid = std::stoi(value());
    } else if (flag == "--check") {
      check = true;
    } else if (flag == "--check-json") {
      check_json_path = value();
    } else if (flag == "--timeseries") {
      timeseries_path = value();
    } else if (flag == "--slo") {
      slo = true;
    } else if (flag == "--slo-threshold") {
      slo_threshold = std::stod(value());
      if (slo_threshold <= 0) {
        std::cerr << "error: --slo-threshold: must be > 0\n";
        return 2;
      }
    } else if (flag == "--slo-objective") {
      slo_objective = std::stod(value());
      if (slo_objective <= 0 || slo_objective >= 1) {
        std::cerr << "error: --slo-objective: must be in (0, 1)\n";
        return 2;
      }
    } else if (flag == "--prom") {
      prom_path = value();
    } else if (flag == "--tolerance") {
      check_options.comm_parity_tolerance = std::stod(value());
    } else if (!flag.empty() && flag[0] == '-' && flag != "-") {
      std::cerr << "error: unknown flag '" << flag << "'\n" << kUsage;
      return 2;
    } else if (trace_path.empty()) {
      trace_path = flag;
    } else {
      std::cerr << "error: more than one trace file given\n" << kUsage;
      return 2;
    }
  }
  if (trace_path.empty() && timeseries_path.empty()) {
    std::cerr << "error: no trace file given\n" << kUsage;
    return 2;
  }
  if ((slo || !prom_path.empty()) && timeseries_path.empty()) {
    std::cerr << "error: --slo/--prom need --timeseries\n" << kUsage;
    return 2;
  }

  std::vector<ho::TraceProcess> processes;
  try {
    if (trace_path == "-") {
      processes = ho::load_chrome_trace(std::cin);
    } else if (!trace_path.empty()) {
      std::ifstream in(trace_path);
      if (!in) {
        std::cerr << "error: cannot read '" << trace_path << "'\n";
        return 2;
      }
      processes = ho::load_chrome_trace(in);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << trace_path << ": " << e.what() << "\n";
    return 2;
  }

  ho::TimeSeries ts;
  if (!timeseries_path.empty()) {
    try {
      std::ostringstream buffer;
      if (timeseries_path == "-") {
        buffer << std::cin.rdbuf();
      } else {
        std::ifstream in(timeseries_path);
        if (!in) {
          std::cerr << "error: cannot read '" << timeseries_path << "'\n";
          return 2;
        }
        buffer << in.rdbuf();
      }
      ts = ho::TimeSeries::from_json(ho::parse_json(buffer.str()));
    } catch (const std::exception& e) {
      std::cerr << "error: " << timeseries_path << ": " << e.what() << "\n";
      return 2;
    }
  }

  const std::vector<ho::CellReport> cells =
      ho::analyze_processes(processes);
  std::vector<ho::CheckOutcome> checks;
  if (!trace_path.empty()) checks = ho::run_checks(cells, check_options);

  // SLO burn-rate evaluation over the loaded store; overrides apply to
  // every default spec so a CI fixture can force a breach.
  std::vector<ho::SloReport> slo_reports;
  if (slo) {
    std::vector<ho::SloSpec> specs = ho::default_slos(ts);
    for (ho::SloSpec& spec : specs) {
      if (slo_threshold > 0 &&
          spec.kind == ho::SloSpec::Kind::LatencyThreshold)
        spec.threshold_s = slo_threshold;
      if (slo_objective > 0) spec.objective = slo_objective;
    }
    slo_reports = ho::evaluate_slos(ts, specs);
    for (const ho::SloReport& report : slo_reports)
      checks.push_back(slo_outcome(report));
  }

  bool io_error = false;
  if (!csv_path.empty() &&
      !write_output(csv_path, [&](std::ostream& out) {
        ho::write_attribution_csv(out, cells);
      })) {
    std::cerr << "error: cannot write '" << csv_path << "'\n";
    io_error = true;
  }
  if (!json_path.empty() &&
      !write_output(json_path, [&](std::ostream& out) {
        ho::write_attribution_json(out, cells, checks);
      })) {
    std::cerr << "error: cannot write '" << json_path << "'\n";
    io_error = true;
  }
  if (!check_json_path.empty() &&
      !write_output(check_json_path, [&](std::ostream& out) {
        ho::write_checks_json(out, checks);
      })) {
    std::cerr << "error: cannot write '" << check_json_path << "'\n";
    io_error = true;
  }
  if (!prom_path.empty() &&
      !write_output(prom_path, [&](std::ostream& out) {
        ho::write_prom_exposition(out, ts);
      })) {
    std::cerr << "error: cannot write '" << prom_path << "'\n";
    io_error = true;
  }
  if (!critical_path_path.empty()) {
    // Default to the process whose root span is longest (in a campaign
    // trace, the most expensive cell); --pid overrides.
    const ho::TraceProcess* chosen = nullptr;
    double best = -1.0;
    for (const ho::TraceProcess& p : processes) {
      if (pid >= 0) {
        if (p.pid == pid) chosen = &p;
        continue;
      }
      const double total = ho::critical_path(p.data).total_s;
      if (total > best) {
        best = total;
        chosen = &p;
      }
    }
    if (chosen == nullptr) {
      std::cerr << "error: no process with pid " << pid
                << " in the trace\n";
      return 2;
    }
    const ho::CriticalPath path = ho::critical_path(chosen->data);
    if (!write_output(critical_path_path, [&](std::ostream& out) {
          ho::write_critical_path_csv(out, path);
        })) {
      std::cerr << "error: cannot write '" << critical_path_path << "'\n";
      io_error = true;
    }
  }
  if (io_error) return 2;

  // Human-facing summary on stdout unless the user asked for machine
  // output there.
  const bool stdout_taken =
      csv_path == "-" || json_path == "-" || critical_path_path == "-" ||
      check_json_path == "-" || prom_path == "-";
  std::ostream& out = stdout_taken ? std::cerr : std::cout;
  if (!stdout_taken && !trace_path.empty()) print_table(std::cout, cells);
  if (!stdout_taken && !timeseries_path.empty())
    print_timeseries(std::cout, ts);

  bool failed = false;
  if (slo) {
    for (const ho::SloReport& report : slo_reports) {
      if (!stdout_taken) print_slo_report(std::cout, report);
      failed = failed || report.breached();
    }
    out << "hpcs-report: " << slo_reports.size() << " SLO(s), "
        << (failed ? "burn-rate objective BREACHED\n" : "all within budget\n");
  }

  if (check) {
    bool all_passed = true;
    for (const ho::CheckOutcome& outcome : checks) {
      out << (outcome.passed ? "[ ok ] " : "[FAIL] ") << outcome.id
          << ": " << outcome.detail << "\n";
      all_passed = all_passed && outcome.passed;
    }
    if (!all_passed) {
      out << "hpcs-report: paper-consistency checks FAILED\n";
      failed = true;
    } else {
      out << "hpcs-report: all paper-consistency checks passed\n";
    }
  }
  return failed ? 1 : 0;
}
