#pragma once

/// \file hedge.hpp
/// \brief Hedged upstream fetches: tail-latency insurance a la "The Tail
///        at Scale" (Dean & Barroso).
///
/// When a primary fetch has been running longer than a high quantile of
/// recent fetch durations, the gateway launches a *hedge* — a second,
/// independent fetch of the same digest — and takes whichever finishes
/// first, cancelling the loser.  The delay is derived online from the
/// observed fetch-duration distribution (never from wall time), so the
/// hedge fires only on genuine stragglers and the extra upstream load
/// stays bounded.  Until `min_samples` durations have been observed the
/// planner refuses to hedge: an empty distribution has no tail.
///
/// The gateway asks for the delay before every fetch and feeds the
/// duration back right after, so the planner keeps its durations sorted:
/// observe() inserts in place (O(n) move, no sort) and delay() is O(1).

#include <cstddef>
#include <vector>

namespace hpcs::gateway {

struct HedgePolicy {
  bool enabled = false;
  /// Fetch-duration quantile after which the hedge launches, in (0, 1).
  double quantile = 0.9;
  /// Observed durations required before hedging arms (>= 1).
  int min_samples = 12;
  /// Floor on the hedge delay [s] so cheap fetches never double-fire.
  double min_delay_s = 0.5;

  /// \throws std::invalid_argument for quantile outside (0,1),
  ///         min_samples < 1, or min_delay_s < 0.
  void validate() const;
};

/// What one (primary, hedge) race produced, in simulated seconds measured
/// from the primary's dispatch.
struct HedgeOutcome {
  double duration = 0.0;      ///< dispatch -> first success (or last failure)
  bool hedge_launched = false;
  bool hedge_won = false;
  bool failed = false;        ///< both attempts exhausted their budgets
  double wasted_s = 0.0;      ///< loser's upstream time cancelled/discarded
};

/// Tracks the fetch-duration distribution and derives the hedge delay.
class HedgePlanner {
 public:
  HedgePlanner() = default;
  explicit HedgePlanner(HedgePolicy policy) : policy_(policy) {}

  /// Feeds one completed primary-fetch duration (no-op when disabled, so
  /// the hedge-off path allocates nothing).
  void observe(double fetch_s);

  /// True when enough samples exist for delay() to be meaningful.
  bool ready() const noexcept;

  /// Current hedge delay: max(min_delay_s, quantile(q)), with the same
  /// interpolation (and bits) as sim::Samples::quantile; call only when
  /// ready().
  double delay() const;

  const HedgePolicy& policy() const noexcept { return policy_; }
  std::size_t observed() const noexcept { return sorted_.size(); }

 private:
  HedgePolicy policy_{};
  std::vector<double> sorted_;  ///< observed durations, ascending
};

/// Resolves the race between a primary fetch taking \p primary_s seconds
/// (success iff \p primary_ok) and a hedge launched \p hedge_delay_s after
/// it taking \p hedge_s (success iff \p hedge_ok).  First success wins and
/// cancels the other attempt; the cancelled/late attempt's spend is
/// charged to `wasted_s`.
HedgeOutcome resolve_hedge(double primary_s, bool primary_ok,
                           double hedge_delay_s, double hedge_s,
                           bool hedge_ok) noexcept;

}  // namespace hpcs::gateway
