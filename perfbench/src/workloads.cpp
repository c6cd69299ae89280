#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/rng.hpp"

namespace perfbench {

namespace {

/// paper-campaign's cells last ~0.25 ms, so with more than one worker its
/// wall time measures how the host schedules the pool's threads: two busy
/// cores elsewhere on a 4-core host made it 35% slower with four workers,
/// 20% with two and not measurably with one.
constexpr int kCampaignWorkers = 1;

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, int workers) {
  if (name == "paper-campaign")
    return make_paper_campaign(seed, std::min(workers, kCampaignWorkers));
  if (name == "gateway-chaos") return make_gateway_chaos(seed, workers);
  if (name == "sched-backfill") return make_sched_backfill(seed, workers);
  if (name == "artery-fsi") return make_artery_fsi();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t derived_seed(std::uint64_t seed, const std::string& name) {
  std::uint64_t state = seed ^ hpcs::sim::hash64(name);
  return hpcs::sim::splitmix64(state);
}

SpanTotal span_total(const std::vector<Span>& spans,
                     const std::string& name) {
  SpanTotal total;
  for (const Span& s : spans) {
    if (s.name != name) continue;
    total.seconds += s.duration();
    ++total.count;
  }
  return total;
}

void pool_values(const std::vector<Span>& spans, const std::string& pool,
                 const std::vector<std::string>& cells, int workers,
                 Values& values) {
  const SpanTotal pools = span_total(spans, pool);
  std::vector<double> durations;
  for (const Span& s : spans)
    if (std::find(cells.begin(), cells.end(), s.name) != cells.end())
      durations.push_back(s.duration());
  if (pools.count == 0 || durations.empty()) return;
  double busy = 0.0;
  for (const double d : durations) busy += d;
  const double passes =
      static_cast<double>(std::max<std::size_t>(1, span_total(spans, "run.pass").count));
  const double capacity = static_cast<double>(workers) * pools.seconds;
  const double mean = busy / static_cast<double>(durations.size());
  const double max = *std::max_element(durations.begin(), durations.end());
  values["core.pool_busy_s"] = busy / passes;
  values["core.pool_capacity_s"] = capacity / passes;
  values["core.pool_utilization"] = capacity > 0 ? busy / capacity : 0.0;
  values["core.cell_max_s"] = max;
  values["core.cell_mean_s"] = mean;
  values["core.cell_imbalance"] = mean > 0 ? max / mean : 0.0;
}

}  // namespace perfbench
