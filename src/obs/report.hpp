#pragma once

/// \file report.hpp
/// \brief Campaign-level reporting over analyzed traces: per-cell and
///        aggregate attribution tables and paper-consistency checks.
///
/// The report layer turns a campaign Chrome trace into the tables the
/// paper's figures are arguing from — which fraction of each cell's time
/// is container overhead vs fabric communication vs compute — and then
/// *checks* the figures' qualitative claims mechanically (`hpcs-report
/// --check`): host-level runtimes keep the comm fraction of bare metal,
/// Docker's TCP transport pays more communication, containerized cells
/// pay deployment overhead bare metal doesn't.  All outputs iterate in
/// cell (pid) order and use fixed numeric formatting, so they are
/// byte-stable across `--jobs` counts and golden-testable.

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/analysis.hpp"

namespace hpcs::obs {

/// One campaign cell's analyzed trace, with the axis fields parsed back
/// out of the cell key ("Lenox/singularity(...)/artery-cfd/n4/28x4/r0").
struct CellReport {
  int pid = 0;
  std::string key;            ///< process name (cell key), verbatim
  std::string cluster;        ///< key segment 0 ("" if unparseable)
  std::string runtime;        ///< key segment 1, the variant display name
  std::string runtime_class;  ///< bare-metal|singularity|shifter|docker|other
  std::string app;            ///< key segment 2
  int nodes = 0;              ///< from the "nN" segment
  int rep = 0;                ///< from the trailing "rR" segment
  bool failed = false;        ///< cell-failed instant / no spans
  Attribution attr;

  /// The comparison point: every axis except the runtime, so cells that
  /// differ only in runtime group together for the consistency checks.
  std::string point() const;
};

/// Lowercased runtime family of a variant display name; "other" when the
/// name matches none of the paper's four runtimes.
std::string runtime_class_of(std::string_view variant);

/// Comm share of *execution* time (comm / (comm + compute + other)) — the
/// fraction the paper plots; deployment overhead is excluded so runtimes
/// are comparable.  0 when the cell did not execute.
double exec_comm_fraction(const Attribution& attr) noexcept;

/// Analyzes one trace process into a CellReport.
CellReport analyze_process(const TraceProcess& process);

/// Analyzes every process, preserving the reader's ascending-pid order.
std::vector<CellReport> analyze_processes(
    const std::vector<TraceProcess>& processes);

/// Sums attribution over successful cells (the campaign aggregate row).
Attribution aggregate(const std::vector<CellReport>& cells);

/// One machine-checked paper-consistency assertion's outcome.
struct CheckOutcome {
  std::string id;           ///< stable slug, e.g. "comm-parity"
  std::string description;  ///< what the figure claims
  bool passed = true;
  std::string detail;       ///< evidence: counts, worst offender
  double measured = 0.0;    ///< headline number behind the verdict
  bool has_measured = false;
};

struct CheckOptions {
  /// Max |comm fraction - bare-metal comm fraction| for host-level
  /// runtimes (Singularity/Shifter) at the same campaign point.
  double comm_parity_tolerance = 0.05;
};

/// Evaluates the paper-consistency checks against analyzed cells.  A
/// check with no applicable cell pairs passes with a "skipped" detail, so
/// partial campaigns (e.g. a bare-metal-only sweep) don't fail vacuously.
std::vector<CheckOutcome> run_checks(const std::vector<CellReport>& cells,
                                     const CheckOptions& options = {});

/// Attribution table: one row per cell in pid order plus a final
/// aggregate row (pid -1, key "(aggregate)").  Deterministic bytes.
void write_attribution_csv(std::ostream& out,
                           const std::vector<CellReport>& cells);

/// The same data as JSON ("hpcs-report-v1"): cells array, aggregate
/// object, and the check outcomes.  Deterministic bytes.
void write_attribution_json(std::ostream& out,
                            const std::vector<CellReport>& cells,
                            const std::vector<CheckOutcome>& checks);

/// Machine-readable verdicts ("hpcs-checks-v1"): per-check pass/fail,
/// detail, and the measured value when one exists.  Shared by
/// `hpcs-report --check --check-json` and the `--slo` verdict, so CI can
/// assert on structured fields instead of grepping tables.
void write_checks_json(std::ostream& out,
                       const std::vector<CheckOutcome>& checks);

/// Critical path as CSV ("depth,track,category,name,start,duration,
/// slack"), root first.
void write_critical_path_csv(std::ostream& out, const CriticalPath& path);

}  // namespace hpcs::obs
