// gateway-chaos: the chaos scorecard grid (hazards x retry-only /
// hedge+breaker / full x runtimes, moderate baseline faults, churn 2)
// through run_chaos_grid, unobserved.

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/thread_pool.hpp"
#include "fault/hazard.hpp"
#include "fault/schedule.hpp"
#include "fault/spec.hpp"
#include "gateway/chaos.hpp"
#include "sim/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace hg = hpcs::gateway;
namespace hc = hpcs::container;
namespace hf = hpcs::fault;

namespace {

bool hedged(const std::string& mitigation) {
  return hg::MitigationSpec::preset(mitigation).hedge.enabled;
}

/// Catalog size putting ~churn x the shared tier in play, as the chaos
/// grid sizes it (geometric mean of the log-uniform image sizes).
int catalog_images(const hg::ChaosGridSpec& spec) {
  const double mean_bytes = std::exp(
      0.5 * (std::log(static_cast<double>(spec.workload.image_bytes_min)) +
             std::log(static_cast<double>(spec.workload.image_bytes_max))));
  const double images =
      spec.churn * static_cast<double>(spec.config.shared_cache_bytes) /
      mean_bytes;
  return std::max(2, static_cast<int>(std::llround(images)));
}

class GatewayChaos final : public Workload {
 public:
  GatewayChaos(std::uint64_t seed, int workers)
      : seed_(seed), workers_(workers) {}

  void setup(Tracer* tracer) override {
    const Tracer::Scope scope(tracer, "gateway.spec");
    spec_ = hg::ChaosGridSpec{};
    spec_.faults = "moderate";
    spec_.churn = 2.0;
    spec_.seed = seed_;
    spec_.validate();
  }

  void run() override {
    grid_ = hg::run_chaos_grid(spec_, workers_, /*observe=*/false);
    fold(nullptr);
  }

  void run_traced(Tracer& tracer) override {
    struct Params {
      std::string hazard, mitigation;
      hc::RuntimeKind runtime;
    };
    std::vector<Params> params;
    for (const std::string& h : spec_.hazards)
      for (const std::string& m : spec_.mitigations)
        for (const hc::RuntimeKind rt : spec_.runtimes)
          params.push_back(Params{h, m, rt});
    grid_ = hg::ChaosGridResult{};
    grid_.name = spec_.name;
    grid_.jobs = workers_;
    grid_.cells.resize(params.size());
    {
      const Tracer::Scope pool_scope(&tracer, "core.pool");
      hpcs::study::TaskPool pool(workers_);
      for (std::size_t i = 0; i < params.size(); ++i)
        pool.submit([&, i, parent = pool_scope.id()] {
          const Params& p = params[i];
          const Tracer::Scope scope(&tracer,
                                    hedged(p.mitigation)
                                        ? "gateway.hedge_cells"
                                        : "gateway.retry_cells",
                                    parent);
          grid_.cells[i] = hg::run_chaos_cell(spec_, p.hazard, p.mitigation,
                                              p.runtime, /*observe=*/false);
        });
      pool.wait_idle();
    }
    fold(&tracer);
  }

  void check(Gate& gate) override {
    std::istringstream csv(csv_);
    std::string row;
    std::getline(csv, row);  // header
    for (const hg::ChaosCellResult& cell : grid_.cells) {
      if (!std::getline(csv, row)) {
        gate.fail(cell.key, "CSV has no row for this cell");
        continue;
      }
      gate.check(cell.key, digest(row), gateway_accounting_error(cell.stats));
    }
  }

  void split(Tracer& tracer, Gate& gate) override {
    const std::uint64_t seed = derived_seed(seed_, "gateway-split");
    const auto one = [&](std::string_view label, const std::string& mitigation,
                         double horizon_scale) {
      const Tracer::Scope scope(&tracer, label);
      const hg::GatewayStats stats = split_cell(
          tracer, "brownout", mitigation, hc::RuntimeKind::Docker,
          horizon_scale, seed);
      gate.check_invariant(std::string(label), gateway_accounting_error(stats));
    };
    one("gateway.split/retry-1x", "retry-only", 1.0);
    one("gateway.split/hedge-1x", "hedge+breaker", 1.0);
    one("gateway.split/hedge-2x", "hedge+breaker", 2.0);
  }

  void layer_values(const std::vector<Span>& spans,
                    Values& values) const override {
    pool_values(spans, "core.pool",
                {"gateway.hedge_cells", "gateway.retry_cells"}, workers_,
                values);
    double arrivals = 0, completed = 0, fetches = 0, coalesced = 0;
    double hits = 0, lookups = 0, hedges = 0, wins = 0, retries = 0;
    double depth = 0;
    for (const hg::ChaosCellResult& cell : grid_.cells) {
      const hg::GatewayStats& s = cell.stats;
      arrivals += static_cast<double>(s.arrivals);
      completed += static_cast<double>(s.completed);
      fetches += static_cast<double>(s.upstream_fetches);
      coalesced += static_cast<double>(s.coalesced);
      hits += static_cast<double>(s.cache.local_hits + s.cache.shared_hits);
      lookups += static_cast<double>(s.cache.lookups());
      hedges += static_cast<double>(s.hedged_fetches);
      wins += static_cast<double>(s.hedge_wins);
      retries += static_cast<double>(s.upstream_retries);
      depth = std::max(depth, static_cast<double>(s.max_queue_depth));
    }
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    values["gateway.arrivals"] = arrivals;
    values["gateway.completed"] = completed;
    values["gateway.completion_ratio"] = ratio(completed, arrivals);
    values["gateway.upstream_fetches"] = fetches;
    values["gateway.coalesced"] = coalesced;
    values["gateway.cache_hits"] = hits;
    values["gateway.cache_lookups"] = lookups;
    values["gateway.cache_hit_ratio"] = ratio(hits, lookups);
    values["gateway.hedged_fetches"] = hedges;
    values["gateway.hedge_wins"] = wins;
    values["gateway.hedge_win_ratio"] = ratio(wins, hedges);
    values["gateway.upstream_retries"] = retries;
    values["gateway.max_queue_depth"] = depth;
    const double one_x = span_total(spans, "gateway.split/hedge-1x").seconds;
    const double two_x = span_total(spans, "gateway.split/hedge-2x").seconds;
    values["gateway.hedge_1x_s"] = one_x;
    values["gateway.hedge_2x_s"] = two_x;
    values["gateway.doubling_ratio"] = ratio(two_x, one_x);
  }

  std::vector<std::string> notes() const override {
    return {"gateway.doubling_ratio: one hedge cell at 2x horizon / at 1x "
            "(about 2 if linear, about 4 if quadratic)"};
  }

 private:
  /// One chaos cell built from the layer objects run_chaos_cell composes,
  /// with a span around every call into them.
  hg::GatewayStats split_cell(Tracer& tracer, const std::string& hazard,
                              const std::string& mitigation,
                              hc::RuntimeKind runtime, double horizon_scale,
                              std::uint64_t seed) const {
    hg::GatewayConfig config = spec_.config;
    hg::MitigationSpec::preset(mitigation).apply(config);
    hg::WorkloadSpec workload = spec_.workload;
    workload.load = spec_.load;
    workload.catalog_images = catalog_images(spec_);
    workload.horizon_s *= horizon_scale;

    const hpcs::sim::Rng root{seed};
    const hg::ImageCatalog catalog = timed(
        tracer, "gateway.workload_gen/catalog",
        [&] { return hg::ImageCatalog(workload, root); });
    hg::ArrivalProcess arrivals =
        timed(tracer, "gateway.workload_gen/arrivals",
              [&] { return hg::ArrivalProcess(workload, root); });
    hf::FaultInjector injector =
        timed(tracer, "fault.draw/fault_injector", [&] {
          return hf::FaultInjector(hf::FaultSpec::preset(spec_.faults), seed);
        });
    const hf::HazardInjector hazards =
        timed(tracer, "fault.draw/hazard_injector", [&] {
          return hf::HazardInjector(hf::HazardSpec::preset(hazard), seed);
        });
    // The service constructor's work is drawing the worker-crash and
    // hazard schedules.
    hg::GatewayService service =
        timed(tracer, "fault.draw/service_schedules", [&] {
          return hg::GatewayService(config, runtime, catalog,
                                    std::move(injector), workload.horizon_s,
                                    nullptr, hazards);
        });
    for (;;) {
      const auto request = timed(tracer, "gateway.workload_gen/next",
                                 [&] { return arrivals.next(); });
      if (!request) break;
      const Tracer::Scope scope(&tracer, "gateway.submit");
      service.submit(*request);
    }
    return timed(tracer, "gateway.finish", [&] { return service.finish(); });
  }

  void fold(Tracer* tracer) {
    const Tracer::Scope scope(tracer, "core.fold/write_csv");
    std::ostringstream csv;
    grid_.write_csv(csv);
    csv_ = csv.str();
  }

  std::uint64_t seed_;
  int workers_;
  hg::ChaosGridSpec spec_;
  hg::ChaosGridResult grid_;
  std::string csv_;
};

}  // namespace

std::string gateway_accounting_error(const hg::GatewayStats& s) {
  const std::uint64_t accounted = s.completed + s.failed + s.rejected_queue +
                                  s.rejected_admission + s.deadline_sheds +
                                  s.breaker_fastfail;
  if (accounted == s.arrivals) return {};
  return "accounting: " + std::to_string(accounted) +
         " served/failed/rejected/shed != " + std::to_string(s.arrivals) +
         " arrivals";
}

std::unique_ptr<Workload> make_gateway_chaos(std::uint64_t seed,
                                             int workers) {
  return std::make_unique<GatewayChaos>(seed, workers);
}

}  // namespace perfbench
