#include "gateway/chaos.hpp"

#include <memory>
#include <stdexcept>

#include "fault/spec.hpp"
#include "sim/csv.hpp"
#include "sim/rng.hpp"

namespace hpcs::gateway {

MitigationSpec MitigationSpec::preset(const std::string& name) {
  MitigationSpec m;
  m.label = name;
  if (name == "retry-only") return m;
  if (name == "breaker") {
    m.breaker.enabled = true;
    m.serve_stale = true;
    return m;
  }
  // The hedging bundles fire earlier than the library default (p75 of
  // observed fetches instead of p90): under fail-slow windows the
  // observed distribution is itself stretched, and a later hedge rarely
  // escapes the window that slowed its primary.
  if (name == "hedge") {
    m.hedge.enabled = true;
    m.hedge.quantile = 0.75;
    return m;
  }
  if (name == "hedge+breaker") {
    m.breaker.enabled = true;
    m.hedge.enabled = true;
    m.hedge.quantile = 0.75;
    m.serve_stale = true;
    return m;
  }
  if (name == "full") {
    m.breaker.enabled = true;
    m.hedge.enabled = true;
    m.hedge.quantile = 0.75;
    m.deadline.enabled = true;
    m.serve_stale = true;
    return m;
  }
  throw std::invalid_argument(
      "unknown mitigation preset '" + name +
      "' (retry-only | breaker | hedge | hedge+breaker | full)");
}

void MitigationSpec::apply(GatewayConfig& config) const {
  config.breaker = breaker;
  config.hedge = hedge;
  config.deadline = deadline;
  config.serve_stale = serve_stale;
}

void ChaosGridSpec::validate() const {
  if (hazards.empty() || mitigations.empty() || runtimes.empty())
    throw std::invalid_argument("ChaosGridSpec: every axis needs a value");
  if (load <= 0) throw std::invalid_argument("ChaosGridSpec: load must be > 0");
  if (churn <= 0)
    throw std::invalid_argument("ChaosGridSpec: churn must be > 0");
  for (const std::string& h : hazards) (void)fault::HazardSpec::preset(h);
  for (const std::string& m : mitigations) (void)MitigationSpec::preset(m);
  (void)fault::FaultSpec::preset(faults);
  config.validate();
  workload.validate();
}

std::string chaos_cell_key(const std::string& hazard,
                           const std::string& mitigation,
                           container::RuntimeKind runtime) {
  return hazard + "/" + mitigation + "/" +
         std::string(container::to_string(runtime));
}

double ChaosCellResult::completion_rate() const noexcept {
  if (stats.arrivals == 0) return 0.0;
  return static_cast<double>(stats.completed) /
         static_cast<double>(stats.arrivals);
}

double ChaosCellResult::stale_fraction() const noexcept {
  if (stats.completed == 0) return 0.0;
  return static_cast<double>(stats.stale_served) /
         static_cast<double>(stats.completed);
}

double ChaosCellResult::start_quantile(double q) const {
  return stats.start_latency.empty() ? 0.0 : stats.start_latency.quantile(q);
}

ChaosCellResult run_chaos_cell(const ChaosGridSpec& spec,
                               const std::string& hazard,
                               const std::string& mitigation,
                               container::RuntimeKind runtime, bool observe) {
  ChaosCellResult cell;
  cell.key = chaos_cell_key(hazard, mitigation, runtime);
  cell.hazard = hazard;
  cell.mitigation = mitigation;
  cell.runtime = runtime;

  GatewayConfig config = spec.config;
  MitigationSpec::preset(mitigation).apply(config);
  WorkloadSpec workload = spec.workload;
  workload.load = spec.load;
  workload.catalog_images = churn_catalog_images(
      workload, spec.config.shared_cache_bytes, spec.churn);

  // Common random numbers: the seed deliberately excludes the mitigation
  // name, so every bundle faces the *same* arrival stream, catalog, fault
  // draws, and hazard schedule for a given (hazard, runtime) — scorecard
  // rows differ only by what the defenses did about the storm, and the
  // headline comparison is paired rather than cross-seed noise.
  const std::uint64_t seed = study::cell_seed(
      spec.seed,
      hazard + "/" + std::string(container::to_string(runtime)));
  const sim::Rng root{seed};
  const ImageCatalog catalog(workload, root);
  ArrivalProcess arrivals(workload, root);
  fault::FaultInjector injector(fault::FaultSpec::preset(spec.faults), seed);
  const fault::HazardInjector hazard_injector(
      fault::HazardSpec::preset(hazard), seed);

  const std::shared_ptr<obs::MemorySink> sink =
      observe ? std::make_shared<obs::MemorySink>() : nullptr;
  obs::Collector collector(sink);  // null sink = disabled, zero cost

  GatewayService service(config, runtime, catalog, std::move(injector),
                         workload.horizon_s, &collector, hazard_injector);
  while (const auto request = arrivals.next()) service.submit(*request);
  cell.stats = service.finish();
  if (observe) {
    cell.trace = sink->take();
    cell.metrics = collector.metrics();
  }
  return cell;
}

ChaosGridResult run_chaos_grid(const ChaosGridSpec& spec, int jobs,
                               bool observe) {
  spec.validate();

  struct CellParams {
    std::string hazard, mitigation;
    container::RuntimeKind runtime;
  };
  std::vector<CellParams> params;
  for (const std::string& h : spec.hazards)
    for (const std::string& m : spec.mitigations)
      for (const container::RuntimeKind rt : spec.runtimes)
        params.push_back(CellParams{h, m, rt});

  return study::run_grid<ChaosGridResult>(
      spec.name, params, jobs, [&](const CellParams& p) {
        return run_chaos_cell(spec, p.hazard, p.mitigation, p.runtime,
                              observe);
      });
}

void ChaosGridResult::write_csv(std::ostream& out) const {
  sim::CsvWriter csv(
      out, {"cell",             "hazard",
            "mitigation",       "runtime",
            "arrivals",         "completed",
            "completion_rate",  "failed",
            "rejected_queue",   "rejected_admission",
            "deadline_sheds",   "breaker_fastfail",
            "breaker_opens",    "stale_served",
            "stale_fraction",   "hedged_fetches",
            "hedge_wins",       "hedge_wasted_s",
            "wasted_work_s",    "upstream_retries",
            "worker_crashes",   "queue_wait_p50_s",
            "start_p50_s",      "start_p95_s",
            "start_p99_s"});
  for (const ChaosCellResult& cell : cells) {
    const GatewayStats& s = cell.stats;
    csv.row({sim::CsvWriter::escape(cell.key),
             cell.hazard,
             cell.mitigation,
             std::string(container::to_string(cell.runtime)),
             sim::CsvWriter::cell(static_cast<std::size_t>(s.arrivals)),
             sim::CsvWriter::cell(static_cast<std::size_t>(s.completed)),
             sim::CsvWriter::cell(cell.completion_rate()),
             sim::CsvWriter::cell(static_cast<std::size_t>(s.failed)),
             sim::CsvWriter::cell(static_cast<std::size_t>(s.rejected_queue)),
             sim::CsvWriter::cell(
                 static_cast<std::size_t>(s.rejected_admission)),
             sim::CsvWriter::cell(static_cast<std::size_t>(s.deadline_sheds)),
             sim::CsvWriter::cell(
                 static_cast<std::size_t>(s.breaker_fastfail)),
             sim::CsvWriter::cell(static_cast<std::size_t>(s.breaker_opens)),
             sim::CsvWriter::cell(static_cast<std::size_t>(s.stale_served)),
             sim::CsvWriter::cell(cell.stale_fraction()),
             sim::CsvWriter::cell(static_cast<std::size_t>(s.hedged_fetches)),
             sim::CsvWriter::cell(static_cast<std::size_t>(s.hedge_wins)),
             sim::CsvWriter::cell(s.hedge_wasted_s),
             sim::CsvWriter::cell(s.wasted_work_s),
             sim::CsvWriter::cell(
                 static_cast<std::size_t>(s.upstream_retries)),
             sim::CsvWriter::cell(
                 static_cast<std::size_t>(s.worker_crashes)),
             study::quantile_cell(s.queue_wait, 0.5),
             sim::CsvWriter::cell(cell.start_quantile(0.5)),
             sim::CsvWriter::cell(cell.start_quantile(0.95)),
             sim::CsvWriter::cell(cell.start_quantile(0.99))});
  }
}

ChaosHeadline check_chaos_headline(const ChaosGridResult& grid) {
  ChaosHeadline verdict;
  const auto find = [&grid](const std::string& mitigation,
                            container::RuntimeKind runtime)
      -> const ChaosCellResult* {
    for (const ChaosCellResult& cell : grid.cells)
      if (cell.hazard == "brownout" && cell.mitigation == mitigation &&
          cell.runtime == runtime)
        return &cell;
    return nullptr;
  };
  for (const ChaosCellResult& cell : grid.cells) {
    if (cell.hazard != "brownout" || cell.mitigation != "retry-only")
      continue;
    const ChaosCellResult* hedged = find("hedge+breaker", cell.runtime);
    if (!hedged) continue;
    const double base_p99 = cell.start_quantile(0.99);
    const double hedged_p99 = hedged->start_quantile(0.99);
    if (hedged_p99 >= base_p99) {
      verdict.ok = false;
      verdict.violations.push_back(
          hedged->key + ": p99 " + sim::CsvWriter::cell(hedged_p99) +
          " !< retry-only " + sim::CsvWriter::cell(base_p99));
    }
    if (hedged->completion_rate() < cell.completion_rate()) {
      verdict.ok = false;
      verdict.violations.push_back(
          hedged->key + ": completion " +
          sim::CsvWriter::cell(hedged->completion_rate()) + " < retry-only " +
          sim::CsvWriter::cell(cell.completion_rate()));
    }
  }
  return verdict;
}

}  // namespace hpcs::gateway
