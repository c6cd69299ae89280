#include "gateway/study.hpp"

#include <cmath>
#include <stdexcept>

#include "fault/spec.hpp"
#include "obs/slo.hpp"
#include "sim/csv.hpp"
#include "sim/rng.hpp"

namespace hpcs::gateway {

void GatewayGridSpec::validate() const {
  if (loads.empty() || churns.empty() || faults.empty() || runtimes.empty())
    throw std::invalid_argument("GatewayGridSpec: every axis needs a value");
  for (const double load : loads)
    if (load <= 0)
      throw std::invalid_argument("GatewayGridSpec: loads must be > 0");
  for (const double churn : churns)
    if (churn <= 0)
      throw std::invalid_argument("GatewayGridSpec: churns must be > 0");
  for (const std::string& f : faults) (void)fault::FaultSpec::preset(f);
  if (timeseries_window_s < 0 || !std::isfinite(timeseries_window_s))
    throw std::invalid_argument(
        "GatewayGridSpec: timeseries_window_s must be >= 0");
  config.validate();
  workload.validate();
}

std::string gateway_cell_key(double load, double churn,
                             const std::string& faults,
                             container::RuntimeKind runtime) {
  return "load-" + sim::CsvWriter::cell(load) + "/churn-" +
         sim::CsvWriter::cell(churn) + "/" + faults + "/" +
         std::string(container::to_string(runtime));
}

ServiceRun run_service(const GatewayConfig& config, WorkloadSpec workload,
                       double load, double churn, const std::string& faults,
                       container::RuntimeKind runtime, std::uint64_t seed,
                       const fault::HazardInjector& hazards,
                       double timeseries_window_s, bool observe) {
  workload.load = load;
  workload.catalog_images =
      churn_catalog_images(workload, config.shared_cache_bytes, churn);
  const sim::Rng root{seed};
  const ImageCatalog catalog(workload, root);
  ArrivalProcess arrivals(workload, root);
  fault::FaultInjector injector(fault::FaultSpec::preset(faults), seed);

  obs::Collector collector(observe);  // not observing = disabled, zero cost
  if (timeseries_window_s > 0)
    collector.enable_timeseries(timeseries_window_s);

  ServiceRun run;
  GatewayService service(config, runtime, catalog, std::move(injector),
                         workload.horizon_s, &collector, hazards);
  while (const auto request = arrivals.next()) service.submit(*request);
  run.stats = service.finish();
  if (collector.timeseries_enabled()) {
    // SLO burn-rate pass over this run's windows; alert intervals land
    // on their own track (above the workers and the hazard lane) so they
    // read as service-level annotations in the trace viewer.
    run.timeseries = collector.timeseries();
    const int slo_track = 2 + config.workers;
    for (const obs::SloReport& report :
         obs::evaluate_slos(run.timeseries,
                            obs::default_slos(run.timeseries)))
      obs::emit_slo_alerts(collector, slo_track, report);
  }
  if (observe) {
    run.trace = collector.take_trace();
    run.metrics = collector.metrics();
  }
  return run;
}

GatewayCellResult run_gateway_cell(const GatewayGridSpec& spec, double load,
                                   double churn, const std::string& faults,
                                   container::RuntimeKind runtime,
                                   bool observe) {
  GatewayCellResult cell;
  cell.key = gateway_cell_key(load, churn, faults, runtime);
  cell.load = load;
  cell.churn = churn;
  cell.faults = faults;
  cell.runtime = runtime;
  ServiceRun run = run_service(
      spec.config, spec.workload, load, churn, faults, runtime,
      study::cell_seed(spec.seed, cell.key), {}, spec.timeseries_window_s,
      observe);
  cell.stats = std::move(run.stats);
  cell.trace = std::move(run.trace);
  cell.metrics = std::move(run.metrics);
  cell.timeseries = std::move(run.timeseries);
  return cell;
}

GatewayGridResult run_gateway_grid(const GatewayGridSpec& spec, int jobs,
                                   bool observe) {
  spec.validate();

  struct CellParams {
    double load, churn;
    std::string faults;
    container::RuntimeKind runtime;
  };
  std::vector<CellParams> params;
  for (const double load : spec.loads)
    for (const double churn : spec.churns)
      for (const std::string& f : spec.faults)
        for (const container::RuntimeKind rt : spec.runtimes)
          params.push_back(CellParams{load, churn, f, rt});

  return study::run_grid<GatewayGridResult>(
      spec.name, params, jobs, [&](const CellParams& p) {
        return run_gateway_cell(spec, p.load, p.churn, p.faults, p.runtime,
                                observe);
      });
}

void GatewayGridResult::write_csv(std::ostream& out) const {
  sim::CsvWriter csv(
      out,
      {"cell",            "load",
       "churn",           "faults",
       "runtime",         "arrivals",
       "completed",       "failed",
       "rejected_queue",  "rejected_admission",
       "coalesced",       "hits_local",
       "hits_shared",     "misses",
       "evictions_local", "evictions_shared",
       "upstream_fetches", "conversions",
       "upstream_retries", "worker_crashes",
       "max_queue_depth", "queue_wait_p50_s",
       "start_p50_s",     "start_p95_s",
       "start_p99_s",     "start_mean_s",
       "start_max_s"});
  for (const GatewayCellResult& cell : cells) {
    const GatewayStats& s = cell.stats;
    csv.row({sim::CsvWriter::escape(cell.key),
             sim::CsvWriter::cell(cell.load),
             sim::CsvWriter::cell(cell.churn),
             cell.faults,
             std::string(container::to_string(cell.runtime)),
             sim::CsvWriter::cell(static_cast<std::size_t>(s.arrivals)),
             sim::CsvWriter::cell(static_cast<std::size_t>(s.completed)),
             sim::CsvWriter::cell(static_cast<std::size_t>(s.failed)),
             sim::CsvWriter::cell(static_cast<std::size_t>(s.rejected_queue)),
             sim::CsvWriter::cell(
                 static_cast<std::size_t>(s.rejected_admission)),
             sim::CsvWriter::cell(static_cast<std::size_t>(s.coalesced)),
             sim::CsvWriter::cell(
                 static_cast<std::size_t>(s.cache.local_hits)),
             sim::CsvWriter::cell(
                 static_cast<std::size_t>(s.cache.shared_hits)),
             sim::CsvWriter::cell(static_cast<std::size_t>(s.cache.misses)),
             sim::CsvWriter::cell(
                 static_cast<std::size_t>(s.cache.local_evictions)),
             sim::CsvWriter::cell(
                 static_cast<std::size_t>(s.cache.shared_evictions)),
             sim::CsvWriter::cell(
                 static_cast<std::size_t>(s.upstream_fetches)),
             sim::CsvWriter::cell(static_cast<std::size_t>(s.conversions)),
             sim::CsvWriter::cell(
                 static_cast<std::size_t>(s.upstream_retries)),
             sim::CsvWriter::cell(
                 static_cast<std::size_t>(s.worker_crashes)),
             sim::CsvWriter::cell(s.max_queue_depth),
             study::quantile_cell(s.queue_wait, 0.5),
             study::quantile_cell(s.start_latency, 0.5),
             study::quantile_cell(s.start_latency, 0.95),
             study::quantile_cell(s.start_latency, 0.99),
             sim::CsvWriter::cell(
                 s.start_latency.empty() ? 0.0 : s.start_latency.mean()),
             sim::CsvWriter::cell(
                 s.start_latency.empty() ? 0.0 : s.start_latency.max())});
  }
}

}  // namespace hpcs::gateway
