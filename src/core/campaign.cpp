#include "core/campaign.hpp"

#include <chrono>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "container/transport.hpp"
#include "core/grid.hpp"
#include "core/images.hpp"
#include "fault/resilience.hpp"
#include "obs/export.hpp"
#include "sim/csv.hpp"
#include "sim/table.hpp"

namespace hpcs::study {

namespace {

// Effective axis values after defaulting the optional axes.
const std::vector<AppCase>& effective_apps(const CampaignSpec& spec) {
  static const std::vector<AppCase> kDefault{AppCase::ArteryCfd};
  return spec.apps.empty() ? kDefault : spec.apps;
}

const std::vector<int>& effective_nodes(const CampaignSpec& spec) {
  static const std::vector<int> kDefault{4};
  return spec.node_counts.empty() ? kDefault : spec.node_counts;
}

const std::vector<Geometry>& effective_geometries(const CampaignSpec& spec) {
  static const std::vector<Geometry> kDefault{Geometry{}};
  return spec.geometries.empty() ? kDefault : spec.geometries;
}

const std::vector<hpcs::fault::FaultSpec>& effective_faults(
    const CampaignSpec& spec) {
  static const std::vector<hpcs::fault::FaultSpec> kDefault{
      hpcs::fault::FaultSpec{}};
  return spec.faults.empty() ? kDefault : spec.faults;
}

std::array<std::size_t, 7> effective_axes(const CampaignSpec& spec) {
  return {spec.clusters.size(),
          spec.variants.size(),
          effective_apps(spec).size(),
          effective_nodes(spec).size(),
          effective_geometries(spec).size(),
          effective_faults(spec).size(),
          static_cast<std::size_t>(spec.repetitions)};
}

// JSON string escaping is shared with the trace writers so every artifact
// survives a json.tool round-trip identically.
using obs::json_escape;

}  // namespace

const char* to_string(FailureKind kind) noexcept {
  switch (kind) {
    case FailureKind::None:
      return "none";
    case FailureKind::Config:
      return "config";
    case FailureKind::ExecFormat:
      return "exec-format";
    case FailureKind::RuntimeUnavailable:
      return "runtime-unavailable";
    case FailureKind::Fault:
      return "fault";
    case FailureKind::Internal:
      return "internal";
  }
  return "internal";
}

FailureKind classify_failure(const std::exception& e) noexcept {
  if (dynamic_cast<const container::ExecFormatError*>(&e))
    return FailureKind::ExecFormat;
  if (dynamic_cast<const container::RuntimeUnavailableError*>(&e))
    return FailureKind::RuntimeUnavailable;
  if (dynamic_cast<const hpcs::fault::FaultError*>(&e))
    return FailureKind::Fault;
  if (dynamic_cast<const std::invalid_argument*>(&e))
    return FailureKind::Config;
  return FailureKind::Internal;
}

std::string RuntimeVariant::name() const {
  if (!display.empty()) return display;
  std::string n{to_string(runtime)};
  if (runtime != container::RuntimeKind::BareMetal) {
    n += "(";
    n += to_string(mode);
    n += ")";
  }
  if (image_arch) {
    n += "@";
    n += to_string(*image_arch);
  }
  return n;
}

CampaignSpec& CampaignSpec::cluster(hw::ClusterSpec c) {
  clusters.push_back(std::move(c));
  return *this;
}

CampaignSpec& CampaignSpec::variant(container::RuntimeKind rt,
                                    container::BuildMode mode,
                                    std::string display,
                                    std::optional<hw::CpuArch> image_arch) {
  variants.push_back(RuntimeVariant{rt, mode, image_arch, std::move(display)});
  return *this;
}

CampaignSpec& CampaignSpec::app(AppCase a) {
  apps.push_back(a);
  return *this;
}

CampaignSpec& CampaignSpec::nodes(std::vector<int> counts) {
  node_counts = std::move(counts);
  return *this;
}

CampaignSpec& CampaignSpec::geometry(int ranks, int threads) {
  geometries.push_back(Geometry{ranks, threads});
  return *this;
}

CampaignSpec& CampaignSpec::steps(int s) {
  time_steps = s;
  return *this;
}

CampaignSpec& CampaignSpec::reps(int r) {
  repetitions = r;
  return *this;
}

CampaignSpec& CampaignSpec::seed(std::uint64_t s) {
  base_seed = s;
  return *this;
}

CampaignSpec& CampaignSpec::fault(hpcs::fault::FaultSpec f) {
  faults.push_back(std::move(f));
  return *this;
}

std::size_t CampaignSpec::size() const noexcept {
  std::size_t n = 1;
  for (std::size_t axis : effective_axes(*this)) n *= axis;
  return n;
}

void CampaignSpec::validate() const {
  if (clusters.empty())
    throw std::invalid_argument("CampaignSpec: no clusters");
  if (variants.empty())
    throw std::invalid_argument("CampaignSpec: no runtime variants");
  if (time_steps < 1)
    throw std::invalid_argument("CampaignSpec: time_steps < 1");
  if (repetitions < 1)
    throw std::invalid_argument("CampaignSpec: repetitions < 1");
  for (int n : node_counts)
    if (n < 1) throw std::invalid_argument("CampaignSpec: node count < 1");
  for (const Geometry& g : geometries)
    if (g.ranks < 0 || g.threads < 1)
      throw std::invalid_argument("CampaignSpec: bad geometry");
  std::size_t disabled = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    faults[i].validate();
    if (!faults[i].enabled) ++disabled;
    for (std::size_t j = i + 1; j < faults.size(); ++j)
      if (faults[i].label == faults[j].label)
        throw std::invalid_argument(
            "CampaignSpec: duplicate fault label '" + faults[i].label + "'");
  }
  // Disabled specs contribute no key segment, so two of them would expand
  // to colliding cell names (and seeds).
  if (disabled > 1)
    throw std::invalid_argument(
        "CampaignSpec: more than one disabled fault spec");
}

std::vector<CampaignCell> CampaignSpec::expand() const {
  validate();
  const auto& apps_ = effective_apps(*this);
  const auto& nodes_ = effective_nodes(*this);
  const auto& geoms_ = effective_geometries(*this);
  const auto& faults_ = effective_faults(*this);

  std::vector<CampaignCell> cells;
  cells.reserve(size());
  for (std::size_t ci = 0; ci < clusters.size(); ++ci)
    for (std::size_t vi = 0; vi < variants.size(); ++vi)
      for (std::size_t ai = 0; ai < apps_.size(); ++ai)
        for (std::size_t ni = 0; ni < nodes_.size(); ++ni)
          for (std::size_t gi = 0; gi < geoms_.size(); ++gi)
            for (std::size_t fi = 0; fi < faults_.size(); ++fi)
              for (int rep = 0; rep < repetitions; ++rep) {
                const auto& cluster = clusters[ci];
                const RuntimeVariant& variant = variants[vi];
                const Geometry& g = geoms_[gi];
                const int n = nodes_[ni];
                const int ranks =
                    g.ranks > 0
                        ? g.ranks
                        : n * cluster.node.cpu.cores() / g.threads;

                std::string key = cluster.name;
                key += "/";
                key += variant.name();
                key += "/";
                key += to_string(apps_[ai]);
                key += "/n" + std::to_string(n);
                key += "/" + std::to_string(ranks) + "x" +
                       std::to_string(g.threads);
                // A disabled fault spec contributes nothing, keeping
                // fault-free keys (and seeds) identical to pre-fault
                // campaigns.
                if (faults_[fi].enabled) key += "/" + faults_[fi].label;
                key += "/r" + std::to_string(rep);

                Scenario scenario{.cluster = cluster,
                                  .runtime = variant.runtime,
                                  .app = apps_[ai],
                                  .nodes = n,
                                  .ranks = ranks,
                                  .threads = g.threads,
                                  .time_steps = time_steps,
                                  .seed = cell_seed(base_seed, key)};
                cells.push_back(
                    CampaignCell{.index = cells.size(),
                                 .cluster_index = ci,
                                 .variant_index = vi,
                                 .app_index = ai,
                                 .nodes_index = ni,
                                 .geometry_index = gi,
                                 .fault_index = fi,
                                 .repetition = rep,
                                 .key = std::move(key),
                                 .variant = variant,
                                 .scenario = std::move(scenario),
                                 .fault_spec = faults_[fi]});
              }
  return cells;
}

container::Image ImageBuildCache::get(const hw::ClusterSpec& cluster,
                                      const RuntimeVariant& variant) {
  const auto arch =
      variant.image_arch ? *variant.image_arch : cluster.node.cpu.arch;
  const auto format =
      container::ContainerRuntime::make(variant.runtime)->native_format();
  std::string k{to_string(arch)};
  k += "|";
  k += to_string(variant.mode);
  k += "|";
  k += to_string(format);

  // Build under the lock: builds are simulated (microseconds of host
  // time), and serializing them guarantees each distinct key is built
  // exactly once, keeping hit/miss totals jobs-invariant.
  std::lock_guard lock(mutex_);
  if (auto it = cache_.find(k); it != cache_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  auto image =
      alya_image(cluster, variant.runtime, variant.mode, variant.image_arch);
  return cache_.emplace(std::move(k), std::move(image)).first->second;
}

std::size_t ImageBuildCache::hits() const noexcept {
  std::lock_guard lock(mutex_);
  return hits_;
}

std::size_t ImageBuildCache::misses() const noexcept {
  std::lock_guard lock(mutex_);
  return misses_;
}

void CampaignOptions::validate() const {
  if (jobs < 0) throw std::invalid_argument("CampaignOptions: jobs < 0");
  if (cell_retries < 0)
    throw std::invalid_argument("CampaignOptions: cell_retries < 0");
  runner.validate();
}

CampaignRunner::CampaignRunner(CampaignOptions options)
    : options_(std::move(options)) {
  options_.validate();
}

CampaignResult CampaignRunner::run(const CampaignSpec& spec) const {
  auto cells = spec.expand();

  CampaignResult res;
  res.name = spec.name;
  res.axes = effective_axes(spec);
  // The --jobs default probes host parallelism; the resolved value is
  // reported in the JSON summary as configuration, never in figure data.
  // hpcs-lint: allow(DET-004) jobs default probes host parallelism only
  const unsigned host_jobs = std::thread::hardware_concurrency();
  res.jobs = options_.jobs > 0
                 ? options_.jobs
                 : std::max(1, static_cast<int>(host_jobs));

  ImageBuildCache cache;
  // Campaign wall time is an operator-facing diagnostic: it appears in
  // the JSON summary but never in figure CSVs, traces, or metrics.
  // hpcs-lint: allow(DET-001) wall_time_s is a host-side diagnostic
  const auto t0 = std::chrono::steady_clock::now();
  // Per-cell host seconds land in host_metrics (never in figure
  // artifacts), indexed by cell so the histogram folds in cell order.
  std::vector<double> cell_host_s(cells.size(), 0.0);
  const TaskPool::Stats pool_stats =
      run_cells(cells.size(), res.jobs, [&](std::size_t i) {
        CampaignCell& cell = cells[i];
        // Each cell carries its own fault spec, so the runner is built per
        // cell; fault-category failures get bounded re-executions with a
        // fresh key-derived seed (jobs-invariant, like everything else).
        RunnerOptions ro = options_.runner;
        ro.faults = cell.fault_spec;
        cell.worker = TaskPool::current_worker();
        // hpcs-lint: allow(DET-001) per-cell host time is diagnostic-only
        const auto cell_t0 = std::chrono::steady_clock::now();
        for (int attempt = 0;; ++attempt) {
          cell.attempts = attempt + 1;
          try {
            if (cell.scenario.runtime != container::RuntimeKind::BareMetal)
              cell.scenario.image =
                  cache.get(cell.scenario.cluster, cell.variant);
            Scenario scenario = cell.scenario;
            if (attempt > 0)
              scenario.seed = cell_seed(
                  spec.base_seed,
                  cell.key + "#retry" + std::to_string(attempt));
            const ExperimentRunner runner(ro);
            cell.result = runner.run(scenario);
            cell.ok = true;
            cell.failure = FailureKind::None;
            cell.error.clear();
            break;
          } catch (const std::exception& e) {
            cell.ok = false;
            cell.error = e.what();
            cell.failure = classify_failure(e);
            if (cell.failure != FailureKind::Fault ||
                attempt >= options_.cell_retries)
              break;
          }
        }
        // hpcs-lint: allow(DET-001) per-cell host time is diagnostic-only
        const auto cell_t1 = std::chrono::steady_clock::now();
        cell_host_s[i] =
            std::chrono::duration<double>(cell_t1 - cell_t0).count();
      });
  // hpcs-lint: allow(DET-001) wall_time_s is a host-side diagnostic
  const auto t1 = std::chrono::steady_clock::now();
  res.wall_time_s = std::chrono::duration<double>(t1 - t0).count();

  for (const CampaignCell& cell : cells)
    (cell.ok ? res.succeeded : res.failed)++;
  res.image_cache_hits = cache.hits();
  res.image_cache_misses = cache.misses();

  // Harness-health registry.  Everything here is host-side and
  // scheduling-dependent, so it lives apart from aggregate_metrics() and
  // is never serialized into jobs-invariant artifacts.
  std::size_t workers_used = 0;
  for (const std::size_t n : pool_stats.per_worker) {
    if (n > 0) ++workers_used;
    res.host_metrics.observe("pool/tasks_per_worker",
                             static_cast<double>(n));
  }
  res.host_metrics.gauge("pool/workers", static_cast<double>(res.jobs));
  res.host_metrics.gauge("pool/steals",
                         static_cast<double>(pool_stats.steals));
  res.host_metrics.gauge("pool/max_queue_depth",
                         static_cast<double>(pool_stats.max_queue_depth));
  res.host_metrics.gauge(
      "pool/utilization",
      res.jobs > 0 ? static_cast<double>(workers_used) /
                         static_cast<double>(res.jobs)
                   : 0.0);
  res.host_metrics.count("pool/tasks_executed",
                         static_cast<double>(pool_stats.tasks_executed));
  for (const double seconds : cell_host_s)
    res.host_metrics.observe("campaign/cell_host_s", seconds);
  res.host_metrics.gauge("campaign/wall_time_s", res.wall_time_s);

  res.cells = std::move(cells);
  return res;
}

const CampaignCell& CampaignResult::at(std::size_t cluster,
                                       std::size_t variant, std::size_t app,
                                       std::size_t nodes,
                                       std::size_t geometry,
                                       std::size_t fault_level,
                                       int repetition) const {
  const std::size_t index =
      (((((cluster * axes[1] + variant) * axes[2] + app) * axes[3] + nodes) *
            axes[4] +
        geometry) *
           axes[5] +
       fault_level) *
          axes[6] +
      static_cast<std::size_t>(repetition);
  if (index >= cells.size())
    throw std::out_of_range("CampaignResult::at: index out of range");
  return cells[index];
}

Series CampaignResult::series(
    std::size_t cluster, std::size_t variant, std::size_t app,
    const std::function<double(const RunResult&)>& metric,
    std::size_t fault_level) const {
  Series s;
  const bool sweep_nodes = axes[3] > 1;
  const bool sweep_geometry = axes[4] > 1;
  for (std::size_t ni = 0; ni < axes[3]; ++ni)
    for (std::size_t gi = 0; gi < axes[4]; ++gi) {
      double sum = 0.0;
      int n_ok = 0;
      const CampaignCell* any = nullptr;
      for (int rep = 0; rep < static_cast<int>(axes[6]); ++rep) {
        const CampaignCell& cell =
            at(cluster, variant, app, ni, gi, fault_level, rep);
        any = &cell;
        if (!cell.ok) continue;
        sum += metric(cell.result);
        ++n_ok;
      }
      if (s.name.empty() && any) s.name = any->variant.name();
      if (n_ok == 0) continue;  // every repetition failed: no point
      std::string label;
      if (sweep_nodes) label = std::to_string(any->scenario.nodes);
      if (sweep_geometry || !sweep_nodes) {
        if (!label.empty()) label += "/";
        label += std::to_string(any->scenario.ranks) + "x" +
                 std::to_string(any->scenario.threads);
      }
      s.add(std::move(label), sum / n_ok);
    }
  return s;
}

void CampaignResult::write_csv(std::ostream& out) const {
  sim::CsvWriter csv(out, {"index", "cluster", "runtime", "mode", "app",
                           "nodes", "ranks", "threads", "steps", "rep",
                           "seed", "status", "avg_step_time_s",
                           "total_time_s", "compute_s", "halo_s",
                           "reduction_s", "interface_s", "comm_fraction",
                           "energy_j", "avg_node_power_w", "deploy_s",
                           "error", "error_category", "fault", "attempts",
                           "crashes", "downtime_s", "lost_work_s",
                           "pull_retries", "effective_s"});
  for (const CampaignCell& cell : cells) {
    const Scenario& sc = cell.scenario;
    std::vector<std::string> row{
        sim::CsvWriter::cell(cell.index),
        sc.cluster.name,
        std::string(to_string(cell.variant.runtime)),
        cell.variant.runtime == container::RuntimeKind::BareMetal
            ? "-"
            : std::string(to_string(cell.variant.mode)),
        std::string(to_string(sc.app)),
        sim::CsvWriter::cell(static_cast<long long>(sc.nodes)),
        sim::CsvWriter::cell(static_cast<long long>(sc.ranks)),
        sim::CsvWriter::cell(static_cast<long long>(sc.threads)),
        sim::CsvWriter::cell(static_cast<long long>(sc.time_steps)),
        sim::CsvWriter::cell(static_cast<long long>(cell.repetition)),
        sim::CsvWriter::cell(static_cast<std::size_t>(sc.seed)),
        cell.ok ? "ok" : "failed"};
    if (cell.ok) {
      const RunResult& r = cell.result;
      row.push_back(sim::CsvWriter::cell(r.avg_step_time));
      row.push_back(sim::CsvWriter::cell(r.total_time));
      row.push_back(sim::CsvWriter::cell(r.compute_time));
      row.push_back(sim::CsvWriter::cell(r.halo_time));
      row.push_back(sim::CsvWriter::cell(r.reduction_time));
      row.push_back(sim::CsvWriter::cell(r.interface_time));
      row.push_back(sim::CsvWriter::cell(r.comm_fraction));
      row.push_back(sim::CsvWriter::cell(r.energy_j));
      row.push_back(sim::CsvWriter::cell(r.avg_node_power_w));
      row.push_back(sim::CsvWriter::cell(r.deployment.total_time));
      row.push_back("");
      row.push_back("");
      row.push_back(cell.fault_spec.label);
      row.push_back(sim::CsvWriter::cell(
          static_cast<long long>(cell.attempts)));
      row.push_back(sim::CsvWriter::cell(
          static_cast<long long>(r.resilience.crashes)));
      row.push_back(sim::CsvWriter::cell(r.resilience.downtime_s));
      row.push_back(sim::CsvWriter::cell(r.resilience.lost_work_s));
      row.push_back(sim::CsvWriter::cell(
          static_cast<long long>(r.resilience.pull_retries)));
      row.push_back(sim::CsvWriter::cell(r.resilience.effective_time_s));
    } else {
      for (int i = 0; i < 10; ++i) row.push_back("");
      row.push_back(cell.error);
      row.push_back(to_string(cell.failure));
      row.push_back(cell.fault_spec.label);
      row.push_back(sim::CsvWriter::cell(
          static_cast<long long>(cell.attempts)));
      for (int i = 0; i < 5; ++i) row.push_back("");
    }
    csv.row(row);
  }
}

void CampaignResult::write_json(std::ostream& out) const {
  out << "{\n";
  out << "  \"name\": \"" << json_escape(name) << "\",\n";
  out << "  \"jobs\": " << jobs << ",\n";
  out << "  \"cells\": " << cells.size() << ",\n";
  out << "  \"succeeded\": " << succeeded << ",\n";
  out << "  \"failed\": " << failed << ",\n";
  out << "  \"image_builds\": {\"misses\": " << image_cache_misses
      << ", \"hits\": " << image_cache_hits << "},\n";
  out << "  \"axes\": {\"clusters\": " << axes[0]
      << ", \"variants\": " << axes[1] << ", \"apps\": " << axes[2]
      << ", \"node_counts\": " << axes[3] << ", \"geometries\": " << axes[4]
      << ", \"faults\": " << axes[5] << ", \"repetitions\": " << axes[6]
      << "},\n";
  int crashes = 0, pull_retries = 0, retried_cells = 0;
  double downtime = 0.0, lost_work = 0.0;
  for (const CampaignCell& cell : cells) {
    if (cell.attempts > 1) ++retried_cells;
    if (!cell.ok) continue;
    crashes += cell.result.resilience.crashes;
    pull_retries += cell.result.resilience.pull_retries;
    downtime += cell.result.resilience.downtime_s;
    lost_work += cell.result.resilience.lost_work_s;
  }
  out << "  \"resilience\": {\"crashes\": " << crashes
      << ", \"pull_retries\": " << pull_retries
      << ", \"downtime_s\": " << downtime
      << ", \"lost_work_s\": " << lost_work
      << ", \"retried_cells\": " << retried_cells << "},\n";
  out << "  \"failed_cells\": [";
  bool first = true;
  for (const CampaignCell& cell : cells) {
    if (cell.ok) continue;
    if (!first) out << ", ";
    first = false;
    out << "{\"key\": \"" << json_escape(cell.key) << "\", \"category\": \""
        << to_string(cell.failure) << "\", \"error\": \""
        << json_escape(cell.error) << "\"}";
  }
  out << "]";
  // Aggregate metrics appear only when cells recorded any (the runner ran
  // with observe), so pre-observability reports keep their exact bytes.
  bool have_metrics = false;
  for (const CampaignCell& cell : cells)
    if (cell.ok && !cell.result.metrics.empty()) {
      have_metrics = true;
      break;
    }
  if (have_metrics) {
    std::ostringstream metrics_json;
    aggregate_metrics().write_json(metrics_json);
    std::string body = metrics_json.str();
    while (!body.empty() && body.back() == '\n') body.pop_back();
    out << ",\n  \"metrics\": " << body;
  }
  out << "\n}\n";
}

obs::Metrics CampaignResult::aggregate_metrics() const {
  obs::Metrics m;
  // Strict cell-index order: counter sums and histogram combines are
  // evaluated in the same sequence regardless of which worker ran what.
  for (const CampaignCell& cell : cells)
    if (cell.ok) m.merge(cell.result.metrics);
  m.count("campaign/cells", static_cast<double>(cells.size()));
  m.count("campaign/cells_ok", static_cast<double>(succeeded));
  m.count("campaign/cells_failed", static_cast<double>(failed));
  m.count("campaign/image_builds", static_cast<double>(image_cache_misses));
  m.count("campaign/image_cache_hits",
          static_cast<double>(image_cache_hits));
  return m;
}

obs::TimeSeries CampaignResult::aggregate_timeseries() const {
  obs::TimeSeries total;
  // Strict cell-index order, like aggregate_metrics(): the merge is
  // associative and commutative, so any order gives the same store, but
  // a fixed order keeps the code auditable.
  for (const CampaignCell& cell : cells)
    if (cell.ok) total.merge(cell.result.timeseries);
  return total;
}

void CampaignResult::write_timeseries_csv(std::ostream& out) const {
  sim::CsvWriter csv(out, obs::TimeSeries::csv_header());
  for (const CampaignCell& cell : cells)
    if (cell.ok) cell.result.timeseries.write_csv_rows(csv, cell.key);
  aggregate_timeseries().write_csv_rows(csv, "(aggregate)");
}

void CampaignResult::write_chrome_trace(std::ostream& out) const {
  obs::ChromeTraceWriter w(out);
  for (const CampaignCell& cell : cells) {
    const int pid = static_cast<int>(cell.index);
    w.process_name(pid, cell.key);
    obs::TraceData campaign_events;
    if (cell.ok) {
      obs::SpanEvent top;
      top.name = "cell";
      top.category = "campaign";
      top.track = 0;
      top.start = 0.0;
      top.duration =
          cell.result.deployment.total_time + cell.result.total_time;
      top.args = {{"key", cell.key},
                  {"runtime", cell.variant.name()},
                  {"app", std::string(to_string(cell.scenario.app))},
                  {"nodes", std::to_string(cell.scenario.nodes)},
                  {"attempts", std::to_string(cell.attempts)}};
      campaign_events.spans.push_back(std::move(top));
    } else {
      obs::InstantEvent failed_mark;
      failed_mark.name = "cell-failed";
      failed_mark.category = "campaign";
      failed_mark.track = 0;
      failed_mark.time = 0.0;
      failed_mark.args = {{"category", to_string(cell.failure)},
                          {"error", cell.error}};
      campaign_events.instants.push_back(std::move(failed_mark));
    }
    w.add(campaign_events, pid);
    if (cell.ok && !cell.result.trace.empty())
      w.add(cell.result.trace, pid);
  }
  w.finish();
}

void CampaignResult::print(std::ostream& out) const {
  sim::TextTable t({"cell", "status", "avg step [s]", "total [s]",
                    "comm frac", "deploy [s]"});
  for (const CampaignCell& cell : cells) {
    if (cell.ok) {
      t.add_row({cell.key, "ok",
                 sim::TextTable::num(cell.result.avg_step_time, 5),
                 sim::TextTable::num(cell.result.total_time, 3),
                 sim::TextTable::num(cell.result.comm_fraction, 3),
                 sim::TextTable::num(cell.result.deployment.total_time, 3)});
    } else {
      t.add_row({cell.key,
                 "FAILED[" + std::string(to_string(cell.failure)) +
                     "]: " + cell.error,
                 "-", "-", "-", "-"});
    }
  }
  t.print(out);
  std::set<int> workers;
  for (const CampaignCell& cell : cells)
    if (cell.worker >= 0) workers.insert(cell.worker);
  out << "\ncampaign '" << name << "': " << cells.size() << " cells, "
      << succeeded << " ok, " << failed << " failed | image builds: "
      << image_cache_misses << " built, " << image_cache_hits
      << " cache hits | " << jobs << " jobs";
  if (!workers.empty()) out << " (" << workers.size() << " workers used)";
  out << ", wall " << sim::TextTable::num(wall_time_s, 3) << " s\n";
}

}  // namespace hpcs::study
