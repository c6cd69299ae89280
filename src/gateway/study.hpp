#pragma once

/// \file study.hpp
/// \brief The gateway benchmark grid: offered load x cache churn x fault
///        preset x runtime, run through the keyed-grid runner
///        (core/grid.hpp).
///
/// Each cell simulates one GatewayService run under the seed derived
/// from its key, so the CSV/trace/metrics artifacts are byte-identical
/// for any `--jobs` count.  The headline artifact is the tail-latency
/// table: p50/p95/p99 of the "job can start" latency per cell.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "container/runtime.hpp"
#include "core/grid.hpp"
#include "gateway/config.hpp"
#include "gateway/service.hpp"
#include "gateway/workload.hpp"
#include "obs/collector.hpp"
#include "obs/metrics.hpp"

namespace hpcs::gateway {

struct GatewayGridSpec {
  std::string name = "gateway";
  std::vector<double> loads = {0.5, 1.0, 2.0, 4.0};
  /// Catalog pressure: total catalog bytes as a multiple of the shared
  /// cache tier (0.5 = everything fits; 8 = heavy eviction churn).
  std::vector<double> churns = {0.5, 2.0, 8.0};
  std::vector<std::string> faults = {"none", "moderate"};
  std::vector<container::RuntimeKind> runtimes = {
      container::RuntimeKind::Docker, container::RuntimeKind::Singularity,
      container::RuntimeKind::Shifter};
  GatewayConfig config;
  WorkloadSpec workload;  ///< base; load/catalog are overridden per cell
  std::uint64_t seed = 42;
  /// Windowed-telemetry window width in simulated seconds; 0 (the
  /// default) leaves temporal telemetry off.  Only takes effect when the
  /// grid runs observed — telemetry never exists without a collector.
  double timeseries_window_s = 0.0;

  /// \throws std::invalid_argument when any axis is empty or a fault
  ///         preset name is unknown.
  void validate() const;
};

/// One grid point's parameters and outcome.
struct GatewayCellResult {
  std::string key;
  double load = 1.0;
  double churn = 1.0;
  std::string faults = "none";
  container::RuntimeKind runtime = container::RuntimeKind::Docker;
  GatewayStats stats;
  obs::TraceData trace;        ///< empty unless observed
  obs::Metrics metrics;        ///< empty unless observed
  obs::TimeSeries timeseries;  ///< empty unless timeseries_window_s > 0
};

struct GatewayGridResult : study::Grid<GatewayCellResult> {
  /// Deterministic tail-latency CSV, cells in grid order.
  void write_csv(std::ostream& out) const;
};

/// What one seeded GatewayService run leaves behind.
struct ServiceRun {
  GatewayStats stats;
  obs::TraceData trace;        ///< empty unless observed
  obs::Metrics metrics;        ///< empty unless observed
  obs::TimeSeries timeseries;  ///< empty unless timeseries_window_s > 0
};

/// The run behind every gateway-grid and chaos cell: \p workload at
/// offered \p load, its catalog sized to \p churn times the shared tier,
/// through one GatewayService under \p config.  The catalog, arrivals
/// and fault draws (preset \p faults) come from \p seed; \p hazards
/// layers correlated hazards on top.  A positive \p timeseries_window_s
/// (observed runs only) adds windowed telemetry and SLO alert spans.
ServiceRun run_service(const GatewayConfig& config, WorkloadSpec workload,
                       double load, double churn, const std::string& faults,
                       container::RuntimeKind runtime, std::uint64_t seed,
                       const fault::HazardInjector& hazards,
                       double timeseries_window_s, bool observe);

/// The cell key ("load-2/churn-8/moderate/Docker") — also the seed name.
std::string gateway_cell_key(double load, double churn,
                             const std::string& faults,
                             container::RuntimeKind runtime);

/// Runs one cell (exposed for tests; bench cells go through the grid).
GatewayCellResult run_gateway_cell(const GatewayGridSpec& spec, double load,
                                   double churn, const std::string& faults,
                                   container::RuntimeKind runtime,
                                   bool observe);

/// Runs the whole grid on \p jobs workers.
GatewayGridResult run_gateway_grid(const GatewayGridSpec& spec, int jobs,
                                   bool observe = false);

}  // namespace hpcs::gateway
