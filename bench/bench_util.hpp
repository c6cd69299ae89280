#pragma once

/// \file bench_util.hpp
/// \brief Shared helpers for the paper-figure bench binaries.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "core/cli.hpp"
#include "core/images.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"

namespace hpcs::bench {

/// Ensures ./results exists and returns "results/<name>".
inline std::string results_path(const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  return (std::filesystem::path("results") / name).string();
}

/// Prints the figure and mirrors it to results/<csv_name> plus a gnuplot
/// script next to it; reports where.  A file that cannot be written
/// ends the program with exit code 1 after naming the path.
inline void emit(const hpcs::study::Figure& fig, const std::string& csv_name) {
  fig.print(std::cout);
  const auto path = results_path(csv_name);
  if (!hpcs::study::save_outputs(
          {{path, [&](std::ostream& o) { fig.write_csv(o); }},
           {path + ".gp",
            [&](std::ostream& o) { fig.write_gnuplot(o, path); }}},
          std::cout, std::cerr))
    std::exit(1);
  std::cout << '\n';
}

/// Builds a scenario for one figure point.
inline hpcs::study::Scenario make_scenario(
    const hpcs::hw::ClusterSpec& cluster, hpcs::container::RuntimeKind rt,
    hpcs::study::AppCase app, int nodes, int ranks, int threads,
    int time_steps) {
  hpcs::study::Scenario s{.cluster = cluster,
                          .runtime = rt,
                          .app = app,
                          .nodes = nodes,
                          .ranks = ranks,
                          .threads = threads,
                          .time_steps = time_steps};
  return s;
}

}  // namespace hpcs::bench
