#pragma once

/// \file schedule.hpp
/// \brief Deterministic fault-event generation from named RNG streams.
///
/// Every class of fault draws from its own sim::Rng child stream, keyed by
/// a stable name (and, where applicable, the node index):
///
///   crash      — "fault/crash"            superposed Poisson crash process
///   pulls      — "fault/pull/<node>"      transient registry errors
///   staging    — "fault/stage"            transient shared-FS staging errors
///   straggler  — "fault/straggler/<node>" per-node slowdown lottery
///   link       — "fault/link"             per-run link degradation lottery
///
/// Because child streams derive from the *seed* (not generator state),
/// adding a consumer never perturbs existing draws, two injectors with the
/// same (spec, seed) produce identical schedules, and nothing depends on
/// host thread count or execution order.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "fault/spec.hpp"
#include "sim/rng.hpp"

namespace hpcs::fault {

enum class FaultKind {
  NodeCrash,
  RegistryError,
  StragglerSlowdown,
  LinkDegradation,
};

/// One scheduled fault occurrence.
struct FaultEvent {
  FaultKind kind = FaultKind::NodeCrash;
  double time = 0.0;       ///< simulated wall-clock time [s]
  int node = -1;           ///< affected node, -1 for job-wide events
  double magnitude = 0.0;  ///< kind-specific (slowdown factor, ...)
};

/// Time-ordered fault events for one run.
struct FaultSchedule {
  std::vector<FaultEvent> events;

  bool empty() const noexcept { return events.empty(); }
};

/// Stateful iterator over the job-wide crash process (Poisson with rate
/// nodes / mtbf — the superposition of the per-node exponentials).  Copy
/// freely; each copy replays the same deterministic sequence.
class CrashProcess {
 public:
  CrashProcess(const FaultSpec& spec, sim::Rng stream, int nodes) noexcept;

  /// False when the spec injects no crashes at all.
  bool active() const noexcept { return rate_ > 0.0; }

  /// Absolute time of the next crash and the node it hits; advances the
  /// stream.  Call only when active().
  FaultEvent next();

 private:
  sim::Rng stream_;
  double rate_ = 0.0;  ///< crashes per second, job-wide
  int nodes_ = 1;
  double now_ = 0.0;
};

/// Draws all fault decisions for one run from (spec, seed).
class FaultInjector {
 public:
  /// A disabled spec yields an inert injector: no draws, no faults.
  FaultInjector(FaultSpec spec, std::uint64_t seed);

  const FaultSpec& spec() const noexcept { return spec_; }

  /// The crash process for a job on \p nodes nodes.
  CrashProcess crash_process(int nodes) const;

  /// Crash events in [0, horizon), capped at spec().max_crashes.
  FaultSchedule crash_schedule(double horizon_s, int nodes) const;

  /// Number of transient failures before node \p node's registry pull
  /// succeeds, truncated at \p max_failures (a draw hitting the cap means
  /// the pull never succeeded within the retry budget).
  int pull_failures(int node, int max_failures) const;

  /// Like pull_failures for the central shared-FS staging step.
  int staging_failures(int max_failures) const;

  /// Fraction of the transfer wasted by failed attempt \p attempt of node
  /// \p node (the connection died partway through), in [0, 1).
  double wasted_fraction(int node, int attempt) const;

  /// Compute slowdown for \p node: spec().straggler_factor when the node
  /// drew the straggler lottery, else 1.0.
  double straggler_multiplier(int node) const;

  /// Communication slowdown for the whole run: spec().link_degrade_factor
  /// with probability link_degrade_prob, else 1.0.
  double link_multiplier() const;

  /// Named child stream under this injector's root ("fault/<name>"), for
  /// callers that interleave failure draws with time-dependent state
  /// (gray windows, partitions): the gateway walks "pull"/<stream> and
  /// "waste"/<stream>/<attempt> one attempt at a time.
  sim::Rng stream(std::string_view name) const { return root_.child(name); }

 private:
  FaultSpec spec_;
  sim::Rng root_;
};

}  // namespace hpcs::fault
