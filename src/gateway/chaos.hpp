#pragma once

/// \file chaos.hpp
/// \brief The resilience scorecard: hazard preset x mitigation config x
///        runtime, run through the keyed-grid runner (core/grid.hpp).
///
/// Every cell runs the same open-loop workload through GatewayService
/// under one correlated-hazard preset (`fault::HazardSpec`) and one
/// mitigation bundle (`MitigationSpec`), under a key-derived seed, so
/// its CSV/trace/metrics artifacts are byte-identical for any `--jobs`
/// count.  The headline row
/// is hedging+breaker beating retry-only on p99 job-start latency under
/// the brownout preset at completion rate >= baseline —
/// `check_chaos_headline` turns that claim into a CI gate.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "container/runtime.hpp"
#include "core/grid.hpp"
#include "fault/hazard.hpp"
#include "gateway/config.hpp"
#include "gateway/service.hpp"
#include "gateway/workload.hpp"
#include "obs/collector.hpp"
#include "obs/metrics.hpp"

namespace hpcs::gateway {

/// One named bundle of gateway defenses, applied on top of a base
/// GatewayConfig.  Presets: "retry-only" (nothing beyond retry/backoff),
/// "breaker" (circuit breaker + stale serving), "hedge" (hedged fetches),
/// "hedge+breaker" (both), "full" (both + deadline budgets).
struct MitigationSpec {
  std::string label = "retry-only";
  BreakerPolicy breaker;
  HedgePolicy hedge;
  DeadlinePolicy deadline;
  bool serve_stale = false;

  /// \throws std::invalid_argument for unknown names.
  static MitigationSpec preset(const std::string& name);

  /// Overwrites the mitigation block of \p config with this bundle.
  void apply(GatewayConfig& config) const;
};

struct ChaosGridSpec {
  std::string name = "chaos";
  std::vector<std::string> hazards = {"none", "brownout", "gray", "storm"};
  std::vector<std::string> mitigations = {"retry-only", "hedge+breaker",
                                          "full"};
  std::vector<container::RuntimeKind> runtimes = {
      container::RuntimeKind::Docker, container::RuntimeKind::Shifter};
  /// Baseline (independent) fault preset every cell shares; hazards are
  /// layered on top of it.
  std::string faults = "moderate";
  double load = 1.5;
  /// Catalog pressure as a multiple of the shared tier (the gateway-grid
  /// convention) — > 1 keeps evictions flowing so stale serving has
  /// ghosts to work with.
  double churn = 2.0;
  GatewayConfig config;
  WorkloadSpec workload;  ///< base; load/catalog are overridden per cell
  std::uint64_t seed = 2026;

  /// \throws std::invalid_argument when any axis is empty or a preset
  ///         name is unknown.
  void validate() const;
};

/// One scorecard cell's parameters and outcome.
struct ChaosCellResult {
  std::string key;
  std::string hazard = "none";
  std::string mitigation = "retry-only";
  container::RuntimeKind runtime = container::RuntimeKind::Docker;
  GatewayStats stats;
  obs::TraceData trace;  ///< empty unless observed
  obs::Metrics metrics;  ///< empty unless observed

  double completion_rate() const noexcept;
  double stale_fraction() const noexcept;
  /// p-quantile of the job-start latency; 0 with no served requests.
  double start_quantile(double q) const;
};

struct ChaosGridResult : study::Grid<ChaosCellResult> {
  /// Deterministic scorecard CSV, cells in grid order.
  void write_csv(std::ostream& out) const;
};

/// Headline verdict: for every runtime under the brownout preset,
/// hedge+breaker must beat retry-only on p99 job-start latency without
/// losing completion rate.  Pairs missing from the grid are skipped.
struct ChaosHeadline {
  bool ok = true;
  std::vector<std::string> violations;
};
ChaosHeadline check_chaos_headline(const ChaosGridResult& grid);

/// The cell key ("brownout/hedge+breaker/Docker") — also the seed name.
std::string chaos_cell_key(const std::string& hazard,
                           const std::string& mitigation,
                           container::RuntimeKind runtime);

/// Runs one cell (exposed for tests; bench cells go through the grid).
ChaosCellResult run_chaos_cell(const ChaosGridSpec& spec,
                               const std::string& hazard,
                               const std::string& mitigation,
                               container::RuntimeKind runtime, bool observe);

/// Runs the whole grid on \p jobs workers.
ChaosGridResult run_chaos_grid(const ChaosGridSpec& spec, int jobs,
                               bool observe = false);

}  // namespace hpcs::gateway
