#include "core/report.hpp"

#include <ostream>
#include <stdexcept>

#include "sim/csv.hpp"
#include "sim/table.hpp"

namespace hpcs::study {

void Series::add(std::string label, double value) {
  x.push_back(std::move(label));
  y.push_back(value);
}

void Figure::print(std::ostream& out) const {
  out << "== " << title << " ==\n";
  if (series.empty()) {
    out << "(no data)\n";
    return;
  }
  std::vector<std::string> header{x_label};
  for (const auto& s : series) header.push_back(s.name);
  sim::TextTable table(header);
  const auto& xs = series.front().x;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::vector<std::string> row{xs[i]};
    for (const auto& s : series)
      row.push_back(i < s.y.size() ? sim::TextTable::num(s.y[i], 3) : "-");
    table.add_row(std::move(row));
  }
  table.print(out);
  out << "(" << y_label << ")\n";
  for (const auto& s : series)
    sim::print_ascii_series(out, "  -- " + s.name, s.x, s.y, 40);
}

void Figure::write_csv(std::ostream& out) const {
  std::vector<std::string> header{x_label};
  for (const auto& s : series) header.push_back(s.name);
  sim::CsvWriter csv(out, header);
  if (series.empty()) return;
  const auto& xs = series.front().x;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::vector<std::string> row{xs[i]};
    for (const auto& s : series)
      row.push_back(i < s.y.size() ? sim::CsvWriter::cell(s.y[i]) : "");
    csv.row(row);
  }
}

void Figure::write_gnuplot(std::ostream& out,
                           const std::string& csv_path) const {
  out << "# Generated by hpcs — render with: gnuplot " << csv_path << ".gp\n"
      << "set datafile separator ','\n"
      << "set key outside\n"
      << "set grid\n"
      << "set title \"" << title << "\"\n"
      << "set xlabel \"" << x_label << "\"\n"
      << "set ylabel \"" << y_label << "\"\n"
      << "set terminal pngcairo size 900,600\n"
      << "set output \"" << csv_path << ".png\"\n";
  for (std::size_t i = 0; i < series.size(); ++i)
    out << (i ? ", \\\n     " : "plot ") << "'" << csv_path << "' using 0:"
        << (i + 2) << ":xtic(1) with linespoints title \"" << series[i].name
        << "\"";
  if (!series.empty()) out << '\n';
}

Series speedup_series(const std::string& name,
                      const std::vector<std::string>& labels,
                      const std::vector<double>& times,
                      double baseline_time, double baseline_scale) {
  if (labels.size() != times.size())
    throw std::invalid_argument("speedup_series: size mismatch");
  if (baseline_time <= 0 || baseline_scale <= 0)
    throw std::invalid_argument("speedup_series: bad baseline");
  Series s;
  s.name = name;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (times[i] <= 0)
      throw std::invalid_argument("speedup_series: non-positive time");
    s.add(labels[i], baseline_time * baseline_scale / times[i]);
  }
  return s;
}

}  // namespace hpcs::study
