#pragma once

/// \file report.hpp
/// \brief Figure/series helpers: every bench prints the same rows the
///        paper's figures plot and mirrors them to CSV under results/.

#include <string>
#include <vector>

#include "core/runner.hpp"

namespace hpcs::study {

/// One plotted series: (x label, y value) pairs.
struct Series {
  std::string name;
  std::vector<std::string> x;
  std::vector<double> y;

  void add(std::string label, double value);
};

/// A figure: several series over a shared x axis.
struct Figure {
  std::string title;
  std::string x_label;
  std::string y_label;
  std::vector<Series> series;

  /// Prints an aligned table (x column + one column per series) followed
  /// by per-series ASCII bars.
  void print(std::ostream& out) const;

  /// Writes "x,series1,series2,..." CSV rows to \p out.  The byte-exact
  /// format the golden-figure regression suite locks down.  A figure
  /// with no series writes the header line alone.
  void write_csv(std::ostream& out) const;

  /// Writes a gnuplot script, meant to be saved as `<csv_path>.gp`, that
  /// renders this figure from the CSV at \p csv_path into a PNG next to
  /// it.  A figure with no series gets no plot command.
  void write_gnuplot(std::ostream& out, const std::string& csv_path) const;
};

/// Computes a speedup series from elapsed times: speedup(x) =
/// baseline_time * baseline_scale / time(x), as Fig. 3 plots.
Series speedup_series(const std::string& name,
                      const std::vector<std::string>& labels,
                      const std::vector<double>& times,
                      double baseline_time, double baseline_scale);

}  // namespace hpcs::study
