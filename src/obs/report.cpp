#include "obs/report.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>

#include "obs/export.hpp"
#include "sim/csv.hpp"

namespace hpcs::obs {

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  return '"' + json_escape(s) + '"';
}

std::vector<std::string> split_key(std::string_view key) {
  std::vector<std::string> segments;
  std::size_t begin = 0;
  while (begin <= key.size()) {
    const std::size_t slash = key.find('/', begin);
    if (slash == std::string_view::npos) {
      segments.emplace_back(key.substr(begin));
      break;
    }
    segments.emplace_back(key.substr(begin, slash - begin));
    begin = slash + 1;
  }
  return segments;
}

/// "n4" -> 4, "r0" -> 0; 0 when the segment doesn't match \p prefix.
int parse_int_segment(std::string_view segment, char prefix) {
  if (segment.size() < 2 || segment[0] != prefix) return 0;
  int value = 0;
  for (std::size_t i = 1; i < segment.size(); ++i) {
    const char c = segment[i];
    if (c < '0' || c > '9') return 0;
    value = value * 10 + (c - '0');
  }
  return value;
}

bool is_containerized(std::string_view runtime_class) noexcept {
  return runtime_class == "singularity" || runtime_class == "shifter" ||
         runtime_class == "docker";
}

std::string format_fraction(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

}  // namespace

std::string CellReport::point() const {
  const std::vector<std::string> segments = split_key(key);
  if (segments.size() < 2) return key;
  std::string out;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (i == 1) continue;  // drop the runtime segment
    if (!out.empty()) out += '/';
    out += segments[i];
  }
  return out;
}

std::string runtime_class_of(std::string_view variant) {
  std::string lower(variant);
  std::transform(lower.begin(), lower.end(), lower.begin(), [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  });
  if (lower.find("bare") != std::string::npos) return "bare-metal";
  if (lower.find("singularity") != std::string::npos) return "singularity";
  if (lower.find("shifter") != std::string::npos) return "shifter";
  if (lower.find("docker") != std::string::npos) return "docker";
  return "other";
}

double exec_comm_fraction(const Attribution& attr) noexcept {
  const double exec = attr.comm_s + attr.compute_s + attr.other_s;
  return exec > 0.0 ? attr.comm_s / exec : 0.0;
}

CellReport analyze_process(const TraceProcess& process) {
  CellReport cell;
  cell.pid = process.pid;
  cell.key = process.name;
  const std::vector<std::string> segments = split_key(process.name);
  if (segments.size() >= 3) {
    cell.cluster = segments[0];
    cell.runtime = segments[1];
    cell.app = segments[2];
  }
  for (const std::string& segment : segments) {
    if (int n = parse_int_segment(segment, 'n'); n > 0) cell.nodes = n;
  }
  if (!segments.empty())
    cell.rep = parse_int_segment(segments.back(), 'r');
  cell.runtime_class = runtime_class_of(cell.runtime);
  for (const InstantEvent& i : process.data.instants)
    if (i.name == "cell-failed") cell.failed = true;
  if (process.data.spans.empty()) cell.failed = true;
  if (!cell.failed) cell.attr = attribute(process.data);
  return cell;
}

std::vector<CellReport> analyze_processes(
    const std::vector<TraceProcess>& processes) {
  std::vector<CellReport> cells;
  cells.reserve(processes.size());
  for (const TraceProcess& p : processes)
    cells.push_back(analyze_process(p));
  return cells;
}

Attribution aggregate(const std::vector<CellReport>& cells) {
  Attribution sum;
  for (const CellReport& cell : cells)
    if (!cell.failed) sum += cell.attr;
  return sum;
}

namespace {

/// Cells grouped by comparison point (every axis but the runtime), with
/// failed cells dropped; pid order within a group.
std::map<std::string, std::vector<const CellReport*>> group_by_point(
    const std::vector<CellReport>& cells) {
  std::map<std::string, std::vector<const CellReport*>> groups;
  for (const CellReport& cell : cells)
    if (!cell.failed) groups[cell.point()].push_back(&cell);
  return groups;
}

const CellReport* bare_metal_of(
    const std::vector<const CellReport*>& group) {
  for (const CellReport* cell : group)
    if (cell->runtime_class == "bare-metal") return cell;
  return nullptr;
}

std::string skipped_detail() {
  return "skipped: no applicable runtime pairs in this trace";
}

}  // namespace

std::vector<CheckOutcome> run_checks(const std::vector<CellReport>& cells,
                                     const CheckOptions& options) {
  const auto groups = group_by_point(cells);
  std::vector<CheckOutcome> out;

  {  // Host-level runtimes keep bare metal's comm fraction.
    CheckOutcome check{
        .id = "comm-parity",
        .description =
            "Singularity/Shifter comm fraction matches bare metal at the "
            "same campaign point (host-level runtimes keep the native "
            "fabric)",
        .passed = true,
        .detail = {}};
    int comparisons = 0;
    double worst = 0.0;
    for (const auto& [point, group] : groups) {
      const CellReport* bm = bare_metal_of(group);
      if (bm == nullptr) continue;
      const double bm_frac = exec_comm_fraction(bm->attr);
      for (const CellReport* cell : group) {
        if (cell->runtime_class != "singularity" &&
            cell->runtime_class != "shifter")
          continue;
        ++comparisons;
        const double diff =
            std::abs(exec_comm_fraction(cell->attr) - bm_frac);
        worst = std::max(worst, diff);
        if (diff > options.comm_parity_tolerance && check.passed) {
          check.passed = false;
          check.detail = cell->key + ": comm fraction " +
                         format_fraction(exec_comm_fraction(cell->attr)) +
                         " vs bare-metal " + format_fraction(bm_frac) +
                         " (tolerance " +
                         format_fraction(options.comm_parity_tolerance) +
                         ")";
        }
      }
    }
    if (comparisons == 0) {
      check.detail = skipped_detail();
    } else {
      check.measured = worst;
      check.has_measured = true;
      if (check.passed)
        check.detail = std::to_string(comparisons) +
                       " comparisons, max deviation " +
                       format_fraction(worst);
    }
    out.push_back(std::move(check));
  }

  {  // Docker's TCP transport pays more communication.
    CheckOutcome check{
        .id = "docker-comm-penalty",
        .description =
            "Docker comm fraction exceeds bare metal at the same campaign "
            "point (TCP transport instead of the native fabric)",
        .passed = true,
        .detail = {}};
    int comparisons = 0;
    double min_margin = 0.0;
    for (const auto& [point, group] : groups) {
      const CellReport* bm = bare_metal_of(group);
      if (bm == nullptr) continue;
      const double bm_frac = exec_comm_fraction(bm->attr);
      for (const CellReport* cell : group) {
        if (cell->runtime_class != "docker") continue;
        const double frac = exec_comm_fraction(cell->attr);
        const double margin = frac - bm_frac;
        min_margin = comparisons == 0 ? margin : std::min(min_margin, margin);
        ++comparisons;
        if (frac <= bm_frac && check.passed) {
          check.passed = false;
          check.detail = cell->key + ": comm fraction " +
                         format_fraction(frac) + " <= bare-metal " +
                         format_fraction(bm_frac);
        }
      }
    }
    if (comparisons == 0) {
      check.detail = skipped_detail();
    } else {
      check.measured = min_margin;
      check.has_measured = true;
      if (check.passed)
        check.detail = std::to_string(comparisons) + " comparisons";
    }
    out.push_back(std::move(check));
  }

  {  // Containerized cells pay deployment overhead bare metal doesn't.
    CheckOutcome check{
        .id = "container-overhead",
        .description =
            "Containerized runtimes pay at least bare metal's deployment "
            "overhead at the same campaign point",
        .passed = true,
        .detail = {}};
    int comparisons = 0;
    double min_delta = 0.0;
    for (const auto& [point, group] : groups) {
      const CellReport* bm = bare_metal_of(group);
      if (bm == nullptr) continue;
      for (const CellReport* cell : group) {
        if (!is_containerized(cell->runtime_class)) continue;
        const double delta = cell->attr.container_overhead_s -
                             bm->attr.container_overhead_s;
        min_delta = comparisons == 0 ? delta : std::min(min_delta, delta);
        ++comparisons;
        if (cell->attr.container_overhead_s + 1e-12 <
                bm->attr.container_overhead_s &&
            check.passed) {
          check.passed = false;
          check.detail = cell->key + ": container overhead " +
                         num(cell->attr.container_overhead_s) +
                         "s below bare-metal " +
                         num(bm->attr.container_overhead_s) + "s";
        }
      }
    }
    if (comparisons == 0) {
      check.detail = skipped_detail();
    } else {
      check.measured = min_delta;
      check.has_measured = true;
      if (check.passed)
        check.detail = std::to_string(comparisons) + " comparisons";
    }
    out.push_back(std::move(check));
  }

  {  // Internal consistency: buckets non-negative, fractions sum to 1.
    CheckOutcome check{
        .id = "attribution-sums",
        .description =
            "Every cell's bucket seconds are non-negative and bucket "
            "fractions sum to 1",
        .passed = true,
        .detail = {}};
    int checked = 0;
    for (const CellReport& cell : cells) {
      if (cell.failed) continue;
      ++checked;
      const Attribution& a = cell.attr;
      const bool non_negative =
          a.container_overhead_s >= 0.0 && a.comm_s >= 0.0 &&
          a.compute_s >= 0.0 && a.fault_recovery_s >= 0.0 &&
          a.other_s >= 0.0;
      double fraction_sum = 0.0;
      for (const CostBucket b :
           {CostBucket::ContainerOverhead, CostBucket::Comm,
            CostBucket::Compute, CostBucket::FaultRecovery,
            CostBucket::Other})
        fraction_sum += a.fraction(b);
      const bool sums = a.total_s() == 0.0 ||
                        std::abs(fraction_sum - 1.0) < 1e-9;
      if ((!non_negative || !sums) && check.passed) {
        check.passed = false;
        check.detail = cell.key + ": bucket invariant violated";
      }
    }
    if (checked == 0) {
      check.detail = "skipped: no successful cells";
    } else {
      check.measured = static_cast<double>(checked);
      check.has_measured = true;
      if (check.passed) check.detail = std::to_string(checked) + " cells";
    }
    out.push_back(std::move(check));
  }

  return out;
}

namespace {

std::vector<std::string> attribution_row(const CellReport& cell) {
  using sim::CsvWriter;
  return {CsvWriter::cell(static_cast<long long>(cell.pid)),
          cell.key,
          cell.cluster,
          cell.runtime,
          cell.runtime_class,
          cell.app,
          CsvWriter::cell(static_cast<long long>(cell.nodes)),
          CsvWriter::cell(static_cast<long long>(cell.rep)),
          CsvWriter::cell(static_cast<long long>(cell.failed ? 1 : 0)),
          CsvWriter::cell(cell.attr.container_overhead_s),
          CsvWriter::cell(cell.attr.comm_s),
          CsvWriter::cell(cell.attr.compute_s),
          CsvWriter::cell(cell.attr.fault_recovery_s),
          CsvWriter::cell(cell.attr.other_s),
          CsvWriter::cell(cell.attr.total_s()),
          CsvWriter::cell(exec_comm_fraction(cell.attr))};
}

}  // namespace

void write_attribution_csv(std::ostream& out,
                           const std::vector<CellReport>& cells) {
  sim::CsvWriter csv(
      out, {"pid", "key", "cluster", "runtime", "runtime_class", "app",
            "nodes", "rep", "failed", "container_overhead_s", "comm_s",
            "compute_s", "fault_recovery_s", "other_s", "total_s",
            "comm_exec_fraction"});
  for (const CellReport& cell : cells) csv.row(attribution_row(cell));
  CellReport total;
  total.pid = -1;
  total.key = "(aggregate)";
  total.attr = aggregate(cells);
  csv.row(attribution_row(total));
}

namespace {

void write_attribution_object(std::ostream& out, const Attribution& a,
                              const std::string& indent) {
  out << "{\n";
  out << indent << "  \"container_overhead_s\": "
      << num(a.container_overhead_s) << ",\n";
  out << indent << "  \"comm_s\": " << num(a.comm_s) << ",\n";
  out << indent << "  \"compute_s\": " << num(a.compute_s) << ",\n";
  out << indent << "  \"fault_recovery_s\": " << num(a.fault_recovery_s)
      << ",\n";
  out << indent << "  \"other_s\": " << num(a.other_s) << ",\n";
  out << indent << "  \"total_s\": " << num(a.total_s()) << ",\n";
  out << indent
      << "  \"comm_exec_fraction\": " << num(exec_comm_fraction(a))
      << "\n";
  out << indent << "}";
}

}  // namespace

void write_attribution_json(std::ostream& out,
                            const std::vector<CellReport>& cells,
                            const std::vector<CheckOutcome>& checks) {
  out << "{\n  \"schema\": \"hpcs-report-v1\",\n  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellReport& cell = cells[i];
    out << (i ? ",\n" : "\n") << "    {\n";
    out << "      \"pid\": " << cell.pid << ",\n";
    out << "      \"key\": " << quoted(cell.key) << ",\n";
    out << "      \"cluster\": " << quoted(cell.cluster) << ",\n";
    out << "      \"runtime\": " << quoted(cell.runtime) << ",\n";
    out << "      \"runtime_class\": " << quoted(cell.runtime_class)
        << ",\n";
    out << "      \"app\": " << quoted(cell.app) << ",\n";
    out << "      \"nodes\": " << cell.nodes << ",\n";
    out << "      \"rep\": " << cell.rep << ",\n";
    out << "      \"failed\": " << (cell.failed ? "true" : "false")
        << ",\n";
    out << "      \"attribution\": ";
    write_attribution_object(out, cell.attr, "      ");
    out << "\n    }";
  }
  out << (cells.empty() ? "" : "\n  ") << "],\n  \"aggregate\": ";
  write_attribution_object(out, aggregate(cells), "  ");
  out << ",\n  \"checks\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const CheckOutcome& check = checks[i];
    out << (i ? ",\n" : "\n") << "    {\n";
    out << "      \"id\": " << quoted(check.id) << ",\n";
    out << "      \"description\": " << quoted(check.description) << ",\n";
    out << "      \"passed\": " << (check.passed ? "true" : "false")
        << ",\n";
    out << "      \"detail\": " << quoted(check.detail) << "\n    }";
  }
  out << (checks.empty() ? "" : "\n  ") << "]\n}\n";
}

void write_checks_json(std::ostream& out,
                       const std::vector<CheckOutcome>& checks) {
  bool all_passed = true;
  for (const CheckOutcome& check : checks) all_passed &= check.passed;
  out << "{\n  \"schema\": \"hpcs-checks-v1\",\n  \"passed\": "
      << (all_passed ? "true" : "false") << ",\n  \"checks\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const CheckOutcome& check = checks[i];
    out << (i ? ",\n" : "\n") << "    {\n";
    out << "      \"id\": " << quoted(check.id) << ",\n";
    out << "      \"description\": " << quoted(check.description) << ",\n";
    out << "      \"passed\": " << (check.passed ? "true" : "false") << ",\n";
    out << "      \"measured\": "
        << (check.has_measured ? num(check.measured) : "null") << ",\n";
    out << "      \"detail\": " << quoted(check.detail) << "\n    }";
  }
  out << (checks.empty() ? "" : "\n  ") << "]\n}\n";
}

void write_critical_path_csv(std::ostream& out, const CriticalPath& path) {
  using sim::CsvWriter;
  CsvWriter csv(out, {"depth", "track", "category", "name", "start",
                      "duration", "slack"});
  for (const CriticalStep& step : path.steps)
    csv.row({CsvWriter::cell(static_cast<long long>(step.depth)),
             CsvWriter::cell(static_cast<long long>(step.track)),
             step.category, step.name, CsvWriter::cell(step.start_s),
             CsvWriter::cell(step.duration_s),
             CsvWriter::cell(step.slack_s)});
}

}  // namespace hpcs::obs
