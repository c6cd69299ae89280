#include "fault/resilience.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace hpcs::fault {

void RetryPolicy::validate() const {
  if (max_attempts < 1)
    throw std::invalid_argument("RetryPolicy: max_attempts < 1");
  if (base_delay_s < 0)
    throw std::invalid_argument("RetryPolicy: base_delay_s < 0");
  if (multiplier < 1)
    throw std::invalid_argument("RetryPolicy: multiplier < 1");
  if (max_delay_s < 0)
    throw std::invalid_argument("RetryPolicy: max_delay_s < 0");
}

double RetryPolicy::delay(int retry) const {
  if (retry < 1 || base_delay_s <= 0.0) return 0.0;
  const double raw =
      base_delay_s * std::pow(multiplier, static_cast<double>(retry - 1));
  // `<` (not std::min) so an overflowed raw — inf, or NaN from 0 * inf —
  // lands on the max_delay_s side instead of propagating.
  return raw < max_delay_s ? raw : max_delay_s;
}

double RetryPolicy::total_backoff(int failures) const {
  double total = 0.0;
  for (int k = 1; k <= failures; ++k) {
    const double d = delay(k);
    total += d;
    if (d >= max_delay_s) {
      // Saturated: every remaining retry pays the ceiling.  Closing the
      // sum here keeps pathological max_attempts x multiplier policies
      // from looping through astronomically many overflowing pow calls.
      total += static_cast<double>(failures - k) * max_delay_s;
      break;
    }
  }
  return total;
}

void CheckpointPolicy::validate() const {
  if (interval_s < 0)
    throw std::invalid_argument("CheckpointPolicy: interval_s < 0");
  if (reschedule_delay_s < 0)
    throw std::invalid_argument("CheckpointPolicy: reschedule_delay_s < 0");
}

double ResilienceReport::overhead_fraction() const noexcept {
  if (ideal_time_s <= 0.0) return 0.0;
  return (effective_time_s - ideal_time_s) / ideal_time_s;
}

ResilienceReport replay_with_recovery(
    double ideal_work_s, const CheckpointPolicy& checkpoint,
    const CheckpointCostFn& checkpoint_cost, double recovery_cost_s,
    const std::function<double(int)>& next_crash_time, int max_crashes,
    const ReplayEventFn& on_event) {
  checkpoint.validate();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  ResilienceReport report;
  report.ideal_time_s = std::max(0.0, ideal_work_s);
  const double W = report.ideal_time_s;
  const double interval = checkpoint.interval_s;

  double wall = 0.0;   // effective clock, including overheads
  double done = 0.0;   // work completed since the last rollback
  double saved = 0.0;  // work protected by the last checkpoint
  int crash_i = 0;
  double next_crash = kInf;

  // Skips crash events that land while the job is not computing (masked
  // by downtime or a checkpoint write) and loads the next pending one.
  const auto advance_crash = [&]() {
    next_crash = kInf;
    while (crash_i < max_crashes) {
      const double t = next_crash_time(crash_i);
      if (t >= wall) {
        next_crash = t;
        return;
      }
      ++crash_i;
    }
  };
  advance_crash();

  while (done < W) {
    const double to_ckpt =
        interval > 0.0 ? (saved + interval) - done : kInf;
    const double segment = std::min(W - done, to_ckpt);

    if (next_crash < wall + segment) {
      // Crash mid-segment: roll back to the checkpoint and recover.
      const double progressed = next_crash - wall;
      const double lost = (done + progressed) - saved;
      report.lost_work_s += lost;
      done = saved;
      if (on_event) on_event("crash", next_crash, lost);
      wall = next_crash + recovery_cost_s;
      report.downtime_s += recovery_cost_s;
      if (on_event) on_event("restart", wall, recovery_cost_s);
      ++report.crashes;
      ++report.restarts;
      ++crash_i;
      advance_crash();
      continue;
    }

    wall += segment;
    done += segment;
    if (done >= W) break;

    // Checkpoint due; crashes during the write are masked.
    const double write_cost = checkpoint_cost(wall);
    wall += write_cost;
    report.checkpoint_overhead_s += write_cost;
    ++report.checkpoints;
    saved = done;
    if (on_event) on_event("checkpoint", wall, write_cost);
    if (next_crash < wall) advance_crash();
  }

  report.effective_time_s = wall;
  return report;
}

}  // namespace hpcs::fault
