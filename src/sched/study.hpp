#pragma once

/// \file study.hpp
/// \brief The scheduler benchmark grid: scheduling policy x runtime mix x
///        offered load, run through the keyed-grid runner (core/grid.hpp).
///
/// Each cell simulates one full BatchScheduler run under the seed
/// derived from its key, so the CSV/trace/metrics artifacts are
/// byte-identical for any `--jobs` count.  The headline artifact is the
/// utilization + job-start tail-latency table: p50/p95/p99 of submit ->
/// compute start per cell — the facility-scale version of the paper's
/// runtime comparison.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/grid.hpp"
#include "obs/collector.hpp"
#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"

namespace hpcs::sched {

struct SchedGridSpec {
  std::string name = "sched";
  std::vector<std::string> policies = {"fifo-dedicated",
                                       "backfill-dedicated",
                                       "backfill-share"};
  std::vector<std::string> mixes = {"bare-metal", "mixed",
                                    "container-heavy"};
  std::vector<double> loads = {0.5, 1.0, 2.0};
  /// Environment knobs (FaultSpec / HazardSpec preset names) — part of
  /// the cell key so fault-on grids never collide with clean ones.
  std::string faults = "none";
  std::string hazards = "none";
  bool gateway_enabled = true;
  SchedConfig config;        ///< policy is overridden per cell
  SchedWorkloadSpec workload;  ///< mix/load are overridden per cell
  std::uint64_t seed = 42;
  /// Windowed-telemetry window width in simulated seconds; 0 (the
  /// default) leaves temporal telemetry off.  Only takes effect when the
  /// grid runs observed.
  double timeseries_window_s = 0.0;

  /// \throws std::invalid_argument when any axis is empty or a preset
  ///         name is unknown.
  void validate() const;
};

/// One grid point's parameters and outcome.
struct SchedCellResult {
  std::string key;
  std::string policy;
  std::string mix;
  double load = 1.0;
  SchedStats stats;
  obs::TraceData trace;        ///< empty unless observed
  obs::Metrics metrics;        ///< empty unless observed
  obs::TimeSeries timeseries;  ///< empty unless timeseries_window_s > 0
};

struct SchedGridResult : study::Grid<SchedCellResult> {
  /// Deterministic utilization + tail-latency CSV, cells in grid order.
  void write_csv(std::ostream& out) const;
};

/// The cell key ("backfill-dedicated/mixed/load-2/none/none") — also the
/// seed name.
std::string sched_cell_key(const std::string& policy, const std::string& mix,
                           double load, const std::string& faults,
                           const std::string& hazards);

/// Runs one cell (exposed for tests; bench cells go through the grid).
SchedCellResult run_sched_cell(const SchedGridSpec& spec,
                               const std::string& policy,
                               const std::string& mix, double load,
                               bool observe);

/// Runs the whole grid on \p jobs workers.
SchedGridResult run_sched_grid(const SchedGridSpec& spec, int jobs,
                               bool observe = false);

}  // namespace hpcs::sched
