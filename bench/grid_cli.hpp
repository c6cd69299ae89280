#pragma once

// The command line bench_gateway, bench_chaos and bench_sched share.  A
// bench supplies its axis flags, their usage lines and its table; this
// header owns the parse loop (--help/-h exits 0, a bad command line
// prints "error: ..." and exits 2), the flags --jobs, --csv, --trace-out,
// --metrics-out and --seed (plus --timeseries-out and --window when the
// spec has a timeseries_window_s field), the output probe, the observe
// rule, the artifact list and the elapsed-time line.
// That line is the only wall-clock use (lint-allowlisted); it is printed
// after the grid completes and never reaches an artifact.

#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "sim/table.hpp"

namespace hpcs::bench {

/// Grid specs with windowed telemetry take the two time-series flags.
template <class Spec>
concept TimeseriesSpec = requires(Spec& spec) {
  spec.timeseries_window_s = 1.0;
};

/// Reads the argument of the flag being parsed; throws
/// "FLAG: missing value" when argv ends first.
using FlagValue = std::function<std::string()>;

/// A bench's own flags: applies \p flag (reading its argument through
/// \p value) and returns true, or returns false for a flag it does not
/// know.
using AxisFlags =
    std::function<bool(const std::string& flag, const FlagValue& value)>;

/// What a bench's usage text says beyond the shared flags.
struct GridUsage {
  std::string program;      ///< e.g. "bench_gateway"
  std::string csv_what;     ///< e.g. "tail-latency CSV"
  std::string csv_default;  ///< the --csv default path
  std::string axis_help;    ///< usage lines of the axis flags
  std::string tail_help;    ///< usage lines after --seed; may be empty
};

template <class Spec>
class GridCli {
 public:
  GridCli(Spec& spec, const GridUsage& usage)
      : spec_(spec),
        csv_path_(usage.csv_default),
        help_(help_text(usage, spec.seed)) {}

  /// Parses argv into the spec and the shared options, validates the spec
  /// and probes every output path.  Returns the exit code when the
  /// program should stop: 0 after --help, 2 for a bad command line.
  std::optional<int> parse(int argc, char** argv, const AxisFlags& axis) {
    try {
      for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const FlagValue value = [&]() -> std::string {
          if (i + 1 >= argc)
            throw std::invalid_argument(flag + ": missing value");
          return argv[++i];
        };
        if (flag == "--help" || flag == "-h") {
          std::cout << help_;
          return 0;
        }
        if (!shared_flag(flag, value) && !axis(flag, value))
          throw std::invalid_argument("unknown flag '" + flag + "'");
      }
      if constexpr (TimeseriesSpec<Spec>) {
        if (!timeseries_path_.empty()) spec_.timeseries_window_s = window_s_;
      }
      spec_.validate();
      study::probe_output_paths({{"--csv", csv_path_},
                                 {"--trace-out", trace_path_},
                                 {"--metrics-out", metrics_path_},
                                 {"--timeseries-out", timeseries_path_},
                                 {"--timeseries-out",
                                  study::timeseries_json_path(
                                      timeseries_path_)}});
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
    return std::nullopt;
  }

  /// Returns `run(jobs, observe)`, timed on the host clock.  Any artifact
  /// besides the CSV turns observation on.
  template <class Run>
  auto run(const Run& run) {
    const bool observe = !trace_path_.empty() || !metrics_path_.empty() ||
                         !timeseries_path_.empty();
    const auto start = std::chrono::steady_clock::now();
    auto grid = run(jobs_, observe);
    wall_s_ = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    return grid;
  }

  /// Writes the requested artifacts, then the elapsed-time line.  False
  /// (after "error: cannot write 'PATH'") when an artifact fails.
  template <class Grid>
  bool save(const Grid& grid) const {
    std::vector<study::OutputFile> outputs = {
        {csv_path_, [&](std::ostream& o) { grid.write_csv(o); }},
        {trace_path_, [&](std::ostream& o) { grid.write_chrome_trace(o); }},
        {metrics_path_,
         [&](std::ostream& o) { grid.aggregate_metrics().write_json(o); }}};
    if constexpr (TimeseriesSpec<Spec>) {
      outputs.push_back({timeseries_path_, [&](std::ostream& o) {
                           grid.write_timeseries_csv(o);
                         }});
      outputs.push_back({study::timeseries_json_path(timeseries_path_),
                         [&](std::ostream& o) {
                           grid.aggregate_timeseries().write_json(o);
                         }});
    }
    if (!study::save_outputs(outputs, std::cout, std::cerr)) return false;
    std::cout << grid.cells.size() << " cells, " << jobs_ << " jobs, wall "
              << sim::TextTable::num(wall_s_, 3) << " s\n";
    return true;
  }

 private:
  bool shared_flag(const std::string& flag, const FlagValue& value) {
    if (flag == "--jobs") {
      jobs_ = study::parse_int(flag, value());
      if (jobs_ < 1) throw std::invalid_argument("--jobs: must be >= 1");
    } else if (flag == "--csv") {
      csv_path_ = value();
      if (csv_path_.empty())
        throw std::invalid_argument("--csv: empty path");
    } else if (flag == "--trace-out") {
      trace_path_ = value();
    } else if (flag == "--metrics-out") {
      metrics_path_ = value();
    } else if (flag == "--seed") {
      spec_.seed = study::parse_u64(flag, value());
    } else if (!TimeseriesSpec<Spec>) {
      return false;
    } else if (flag == "--timeseries-out") {
      timeseries_path_ = value();
    } else if (flag == "--window") {
      window_s_ = study::parse_double(flag, value());
      if (window_s_ <= 0)
        throw std::invalid_argument("--window: must be > 0");
    } else {
      return false;
    }
    return true;
  }

  static std::string help_text(const GridUsage& u, std::uint64_t seed) {
    std::string out =
        "usage: " + u.program + " [options]\n" +
        "  --jobs N             TaskPool workers for the grid (default 1)\n" +
        "  --csv PATH           " + u.csv_what + " (default " +
        u.csv_default + ")\n" +
        "  --trace-out PATH     Chrome trace of every cell (enables "
        "observability)\n"
        "  --metrics-out PATH   merged metrics JSON (enables "
        "observability)\n";
    if constexpr (TimeseriesSpec<Spec>)
      out +=
          "  --timeseries-out PATH windowed time-series CSV (enables "
          "observability + temporal telemetry); PATH.json gets\n"
          "                       the aggregate hpcs-timeseries-v1 JSON "
          "(hpcs-report --timeseries/--slo input)\n"
          "  --window S           time-series window width in simulated "
          "seconds (default 60)\n";
    return out + u.axis_help + "  --seed N             grid seed (default " +
           std::to_string(seed) + ")\n" + u.tail_help;
  }

  Spec& spec_;
  int jobs_ = 1;
  std::string csv_path_;
  std::string trace_path_;
  std::string metrics_path_;
  std::string timeseries_path_;
  double window_s_ = 60.0;
  double wall_s_ = 0.0;
  std::string help_;
};

}  // namespace hpcs::bench
