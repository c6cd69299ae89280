#include "gateway/hedge.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/stats.hpp"

namespace hpcs::gateway {

void HedgePolicy::validate() const {
  if (!enabled) return;
  if (quantile <= 0 || quantile >= 1)
    throw std::invalid_argument("HedgePolicy: quantile outside (0,1)");
  if (min_samples < 1)
    throw std::invalid_argument("HedgePolicy: min_samples < 1");
  if (min_delay_s < 0)
    throw std::invalid_argument("HedgePolicy: min_delay_s < 0");
}

void HedgePlanner::observe(double fetch_s) {
  if (!policy_.enabled) return;
  sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), fetch_s),
                 fetch_s);
}

bool HedgePlanner::ready() const noexcept {
  return policy_.enabled &&
         sorted_.size() >= static_cast<std::size_t>(policy_.min_samples);
}

double HedgePlanner::delay() const {
  return std::max(policy_.min_delay_s,
                  sim::sorted_quantile(sorted_, policy_.quantile));
}

HedgeOutcome resolve_hedge(double primary_s, bool primary_ok,
                           double hedge_delay_s, double hedge_s,
                           bool hedge_ok) noexcept {
  HedgeOutcome out;
  if (primary_s <= hedge_delay_s) {
    // Primary resolved before the hedge would have launched.
    out.duration = primary_s;
    out.failed = !primary_ok;
    return out;
  }
  out.hedge_launched = true;
  const double hedge_end = hedge_delay_s + hedge_s;
  if (primary_ok && (primary_s <= hedge_end || !hedge_ok)) {
    // Primary wins; the hedge is cancelled mid-flight.
    out.duration = primary_s;
    out.wasted_s = std::min(hedge_s, primary_s - hedge_delay_s);
    return out;
  }
  if (hedge_ok) {
    // Hedge wins; the primary is cancelled (or had already failed).
    out.hedge_won = true;
    out.duration = hedge_end;
    out.wasted_s = std::min(primary_s, hedge_end);
    return out;
  }
  // Both attempts exhausted their budgets: the hedge added pure waste.
  out.failed = true;
  out.duration = std::max(primary_s, hedge_end);
  out.wasted_s = hedge_s;
  return out;
}

}  // namespace hpcs::gateway
