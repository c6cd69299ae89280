#include "fault/schedule.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace hpcs::fault {

CrashProcess::CrashProcess(const FaultSpec& spec, sim::Rng stream,
                           int nodes) noexcept
    : stream_(stream), nodes_(std::max(1, nodes)) {
  if (spec.enabled && spec.node_mtbf_s > 0.0)
    rate_ = static_cast<double>(nodes_) / spec.node_mtbf_s;
}

FaultEvent CrashProcess::next() {
  now_ += stream_.exponential(rate_);
  const int node =
      static_cast<int>(stream_.uniform_int(0, nodes_ - 1));
  return FaultEvent{FaultKind::NodeCrash, now_, node, 0.0};
}

FaultInjector::FaultInjector(FaultSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), root_(sim::Rng(seed).child("fault")) {
  spec_.validate();
}

CrashProcess FaultInjector::crash_process(int nodes) const {
  return CrashProcess(spec_, root_.child("crash"), nodes);
}

FaultSchedule FaultInjector::crash_schedule(double horizon_s,
                                            int nodes) const {
  FaultSchedule schedule;
  CrashProcess process = crash_process(nodes);
  if (!process.active()) return schedule;
  for (int i = 0; i < spec_.max_crashes; ++i) {
    FaultEvent e = process.next();
    if (e.time >= horizon_s) break;
    schedule.events.push_back(e);
  }
  return schedule;
}

namespace {

/// Successive-Bernoulli failure count on one stream, truncated at \p cap.
int failures_on(sim::Rng rng, double rate, int cap) {
  if (rate <= 0.0 || cap <= 0) return 0;
  int failures = 0;
  while (failures < cap && rng.uniform() < rate) ++failures;
  return failures;
}

}  // namespace

int FaultInjector::pull_failures(int node, int max_failures) const {
  if (!spec_.enabled) return 0;
  const auto stream =
      root_.child("pull").child(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(node)));
  return failures_on(stream, spec_.registry_fault_rate, max_failures);
}

int FaultInjector::staging_failures(int max_failures) const {
  if (!spec_.enabled) return 0;
  return failures_on(root_.child("stage"), spec_.registry_fault_rate,
                     max_failures);
}

double FaultInjector::wasted_fraction(int node, int attempt) const {
  if (!spec_.enabled) return 0.0;
  auto stream = root_.child("waste")
                    .child(static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(node)))
                    .child(static_cast<std::uint64_t>(attempt));
  return stream.uniform();
}

double FaultInjector::straggler_multiplier(int node) const {
  if (!spec_.enabled || spec_.straggler_prob <= 0.0) return 1.0;
  auto stream =
      root_.child("straggler").child(static_cast<std::uint64_t>(node));
  return stream.uniform() < spec_.straggler_prob ? spec_.straggler_factor
                                                 : 1.0;
}

double FaultInjector::link_multiplier() const {
  if (!spec_.enabled || spec_.link_degrade_prob <= 0.0) return 1.0;
  auto stream = root_.child("link");
  return stream.uniform() < spec_.link_degrade_prob
             ? spec_.link_degrade_factor
             : 1.0;
}

}  // namespace hpcs::fault
