#pragma once

/// \file workloads.hpp
/// \brief The benchmark's workloads.  Each is a batch run to completion
///        through the same public entry points the bench binaries and
///        `study_cli` call, seeded from the benchmark's `--seed`.
///
/// A *pass* is one full run of the workload.  Untraced passes call the
/// grid runners (`CampaignRunner::run`, `run_chaos_grid`,
/// `run_sched_grid`) or `FsiDriver::step`.  Traced passes call the
/// per-cell entries on a pool of the same size, one span per call, and a
/// traced run adds one *split*: representative cells built from the layer
/// objects those entries compose, one span per layer call.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gate.hpp"
#include "gateway/service.hpp"
#include "sched/scheduler.hpp"
#include "trace.hpp"

namespace perfbench {

/// Per-layer values a workload reports by metric name.
using Values = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// False when the workload's inputs do not depend on the seed; its pins
  /// then hold at every seed.
  virtual bool seeded() const { return true; }
  /// How outputs of this workload are compared with their reference.
  virtual Gate::Match match() const { return {}; }

  /// Builds the inputs of one pass (timed as `setup_s`).
  virtual void setup(Tracer* tracer) = 0;
  /// The measured phase of an untraced pass.
  virtual void run() = 0;
  /// The measured phase of a traced pass.
  virtual void run_traced(Tracer& tracer) = 0;
  /// Checks the outputs of the last pass, one gate operation per cell or
  /// step.
  virtual void check(Gate& gate) = 0;
  /// Representative cells and other one-off measurements of a traced run;
  /// their outputs go through \p gate's invariants too.
  virtual void split(Tracer& tracer, Gate& gate) = 0;
  /// Counts and ratios of the traced run (timings come from the spans).
  virtual void layer_values(const std::vector<Span>& spans,
                            Values& values) const = 0;
  /// Lines printed under the per-layer table (doubling ratios etc.).
  virtual std::vector<std::string> notes() const { return {}; }
};

/// \throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, int workers);

std::unique_ptr<Workload> make_paper_campaign(std::uint64_t seed,
                                              int workers);
std::unique_ptr<Workload> make_gateway_chaos(std::uint64_t seed,
                                             int workers);
std::unique_ptr<Workload> make_sched_backfill(std::uint64_t seed,
                                              int workers);
std::unique_ptr<Workload> make_artery_fsi();

/// The gateway accounting identity (completed + failed + rejected +
/// deadline sheds + breaker fast-fails == arrivals); empty when it holds.
std::string gateway_accounting_error(const hpcs::gateway::GatewayStats& s);

/// Scheduler job conservation (submitted == completed + failed + shed);
/// empty when it holds.
std::string sched_conservation_error(const hpcs::sched::SchedStats& s);

/// Seed of the benchmark's own representative cells, derived from the
/// run's seed and a per-purpose name.
std::uint64_t derived_seed(std::uint64_t seed, const std::string& name);

/// Runs \p fn inside a span named \p name and returns its result (a
/// prvalue, so the result type need not be movable).
template <class F>
auto timed(Tracer& tracer, std::string_view name, F&& fn) {
  const Tracer::Scope scope(&tracer, name);
  return fn();
}

/// Sum of the durations of spans named exactly \p name, and their count.
struct SpanTotal {
  double seconds = 0.0;
  std::size_t count = 0;
};
SpanTotal span_total(const std::vector<Span>& spans, const std::string& name);

/// Worker-pool health from the spans named in \p cells and those named
/// \p pool: utilization = busy / (workers x pool wall), imbalance = max
/// cell / mean cell, each with its bases (busy and capacity per pass).
void pool_values(const std::vector<Span>& spans, const std::string& pool,
                 const std::vector<std::string>& cells, int workers,
                 Values& values);

}  // namespace perfbench
