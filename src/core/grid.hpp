#pragma once

/// \file grid.hpp
/// \brief The keyed-grid runner every study shares: axes -> cell key ->
///        name-derived seed -> TaskPool fan-out -> index-order fold.
///
/// A study expands its axes into cells in a fixed order, names each cell
/// with a stable key, and derives the cell's seed from that key alone
/// (`cell_seed`).  `run_cells` executes the cells on a TaskPool; each
/// cell writes only its own slot, and every fold (CSV rows, trace pids,
/// merged metrics and time series) walks the slots in index order.  The
/// artifacts are therefore byte-identical for any worker count, and
/// adding an axis value never perturbs the seeds of existing cells.
/// docs/campaigns.md states the contract in full.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/thread_pool.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "sim/csv.hpp"
#include "sim/stats.hpp"

namespace hpcs::study {

/// A cell's seed: derived from the grid's base seed and the cell *name*
/// only, so it is independent of worker count, completion order, and the
/// presence of other axis values.
std::uint64_t cell_seed(std::uint64_t base_seed, const std::string& key);

/// Calls \p cell(i) for every i in [0, n) on a TaskPool of \p jobs
/// workers and waits for all of them.  Each call must write only slot i
/// of its output.  Returns the pool's scheduling statistics (host-side
/// diagnostics; keep them out of jobs-invariant artifacts).
/// \throws std::invalid_argument for jobs < 1; rethrows the first
///         exception a cell threw.
TaskPool::Stats run_cells(std::size_t n, int jobs,
                          const std::function<void(std::size_t)>& cell);

/// CSV cell holding the \p q-quantile of \p samples (0 when empty).
std::string quantile_cell(const sim::Samples& samples, double q);

/// The result of a keyed grid: its cells in expansion order plus the
/// writers every study shares.  `Cell` carries `key`, `trace` and
/// `metrics`; the time-series members also need `timeseries` (class
/// template members are instantiated only where used).
template <class Cell>
struct Grid {
  std::string name;
  int jobs = 1;
  std::vector<Cell> cells;

  /// Chrome trace with one pid per cell, named by its key, in grid order.
  void write_chrome_trace(std::ostream& out) const {
    obs::ChromeTraceWriter writer(out);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const int pid = static_cast<int>(i);
      writer.process_name(pid, cells[i].key);
      if (!cells[i].trace.empty()) writer.add(cells[i].trace, pid);
    }
    writer.finish();
  }

  /// Per-cell metric registries folded in grid order.
  obs::Metrics aggregate_metrics() const {
    obs::Metrics total;
    for (const Cell& cell : cells) total.merge(cell.metrics);
    return total;
  }

  /// Per-cell windowed stores folded in grid order (empty when telemetry
  /// was off); the associative merge keeps the result `--jobs`-invariant.
  obs::TimeSeries aggregate_timeseries() const {
    obs::TimeSeries total;
    for (const Cell& cell : cells) total.merge(cell.timeseries);
    return total;
  }

  /// Time-series CSV: one scope per cell in grid order plus a final
  /// "(aggregate)" scope.  Deterministic bytes.
  void write_timeseries_csv(std::ostream& out) const {
    sim::CsvWriter csv(out, obs::TimeSeries::csv_header());
    for (const Cell& cell : cells)
      cell.timeseries.write_csv_rows(csv, cell.key);
    aggregate_timeseries().write_csv_rows(csv, "(aggregate)");
  }
};

/// Runs one cell per entry of \p params through run_cells and returns
/// them, in \p params order, as a \p Result (a Grid or a type derived
/// from one).
template <class Result, class Params, class RunCell>
Result run_grid(std::string name, const std::vector<Params>& params,
                int jobs, const RunCell& run_cell) {
  Result grid;
  grid.name = std::move(name);
  grid.jobs = jobs;
  grid.cells.resize(params.size());
  run_cells(params.size(), jobs,
            [&](std::size_t i) { grid.cells[i] = run_cell(params[i]); });
  return grid;
}

}  // namespace hpcs::study
