#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

namespace {

bool is_timing(const std::string& name) {
  return name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0;
}

/// The span-name prefix feeding timing metric \p name ("core.runner_s"
/// -> "core.runner").
std::string timing_base(const std::string& name) {
  return name.substr(0, name.size() - 2);
}

bool feeds(std::string_view span, const std::string& base) {
  return span == base ||
         (span.size() > base.size() && span.compare(0, base.size(), base) == 0 &&
          span[base.size()] == '/');
}

/// Root ancestor name of every span ("run.pass", "run.split", or the
/// span itself when it is a root).
std::vector<std::string_view> roots(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::string_view> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::size_t at = i;
    for (auto it = index.find(spans[at].parent); it != index.end();
         it = index.find(spans[at].parent))
      at = it->second;
    out[i] = spans[at].name;
  }
  return out;
}

/// Divisor turning a total into a per-phase value: the number of traced
/// passes for spans under "run.pass", 1 otherwise.
std::vector<double> weights(const std::vector<Span>& spans) {
  const auto root = roots(spans);
  double passes = 0;
  for (const Span& s : spans) passes += s.name == "run.pass" ? 1 : 0;
  std::vector<double> out(spans.size(), 1.0);
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (root[i] == "run.pass" && passes > 0) out[i] = 1.0 / passes;
  return out;
}

std::string fmt(double v, const char* spec = "%.6g") {
  char buf[64];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

std::string tail_label(const Summary& s) {
  if (s.tail_q == 0) return "p50";
  char buf[16];
  std::snprintf(buf, sizeof buf, "p%g", s.tail_q * 100);
  return buf;
}

}  // namespace

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {{"wall_s", "s"},
                                              {"cpu_s", "s"},
                                              {"setup_s", "s"},
                                              {"peak_rss_mb", "MB"}};
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d;
    const auto timing = [&d](const std::string& name) {
      d.push_back({name, "s"});
      d.push_back({name + ".p50", "s"});
      d.push_back({name + ".tail", "s"});
      d.push_back({name + ".n", "count"});
    };
    const auto one = [&d](const std::string& name, const std::string& unit) {
      d.push_back({name, unit});
    };
    timing("core.runner_s");
    timing("core.fold_s");
    one("core.pool_utilization", "ratio");
    one("core.pool_busy_s", "s");
    one("core.pool_capacity_s", "s");
    one("core.cell_imbalance", "ratio");
    one("core.cell_max_s", "s");
    one("core.cell_mean_s", "s");
    one("core.cells", "count");
    one("core.image_builds", "count");
    one("core.image_cache_hits", "count");
    timing("container.deploy_s");
    one("obs.emit_s", "s");
    one("obs.observed_runner_s", "s");
    one("obs.unobserved_runner_s", "s");
    timing("obs.export_s");
    one("obs.trace_bytes", "bytes");
    one("obs.events", "count");
    timing("fault.draw_s");
    one("fault.crashes", "count");
    timing("gateway.hedge_cells_s");
    timing("gateway.retry_cells_s");
    timing("gateway.workload_gen_s");
    timing("gateway.submit_s");
    timing("gateway.finish_s");
    one("gateway.doubling_ratio", "ratio");
    one("gateway.hedge_1x_s", "s");
    one("gateway.hedge_2x_s", "s");
    one("gateway.arrivals", "count");
    one("gateway.completed", "count");
    one("gateway.completion_ratio", "ratio");
    one("gateway.upstream_fetches", "count");
    one("gateway.coalesced", "count");
    one("gateway.cache_hits", "count");
    one("gateway.cache_lookups", "count");
    one("gateway.cache_hit_ratio", "ratio");
    one("gateway.hedged_fetches", "count");
    one("gateway.hedge_wins", "count");
    one("gateway.hedge_win_ratio", "ratio");
    one("gateway.upstream_retries", "count");
    one("gateway.max_queue_depth", "count");
    timing("sched.backfill_cells_s");
    timing("sched.fifo_cells_s");
    timing("sched.jobgen_s");
    one("sched.doubling_ratio", "ratio");
    one("sched.backfill_n_s", "s");
    one("sched.backfill_2n_s", "s");
    one("sched.jobs", "count");
    one("sched.backfill_starts", "count");
    one("sched.requeues", "count");
    one("sched.deploys", "count");
    one("sched.coalesced", "count");
    one("sched.upstream_fetches", "count");
    one("sched.max_active_transfers", "count");
    timing("alya.mesh_s");
    timing("alya.assembly_s");
    timing("alya.step_s");
    one("alya.coupling_iterations", "count");
    one("alya.solid_cg_iterations", "count");
    one("alya.pressure_cg_iterations", "count");
    one("alya.flops", "flop");
    one("alya.bytes_computed", "bytes");
    one("alya.flops_per_byte", "flop/byte");
    one("alya.gflops", "GFLOP/s");
    one("alya.thread_speedup", "ratio");
    one("alya.step_1t_s", "s");
    one("alya.step_2t_s", "s");
    one("trace.overhead_ratio", "ratio");
    one("trace.traced_wall_s", "s");
    one("trace.untraced_wall_s", "s");
    return d;
  }();
  return defs;
}

const std::vector<std::pair<std::string, RatioBases>>& ratio_bases() {
  static const std::vector<std::pair<std::string, RatioBases>> bases = {
      {"core.pool_utilization", {"core.pool_busy_s", "core.pool_capacity_s"}},
      {"core.cell_imbalance", {"core.cell_max_s", "core.cell_mean_s"}},
      {"obs.emit_s", {"obs.observed_runner_s", "obs.unobserved_runner_s"}},
      {"gateway.doubling_ratio", {"gateway.hedge_2x_s", "gateway.hedge_1x_s"}},
      {"gateway.completion_ratio", {"gateway.completed", "gateway.arrivals"}},
      {"gateway.cache_hit_ratio",
       {"gateway.cache_hits", "gateway.cache_lookups"}},
      {"gateway.hedge_win_ratio",
       {"gateway.hedge_wins", "gateway.hedged_fetches"}},
      {"sched.doubling_ratio", {"sched.backfill_2n_s", "sched.backfill_n_s"}},
      {"alya.flops_per_byte", {"alya.flops", "alya.bytes_computed"}},
      {"alya.gflops", {"alya.flops", "alya.step_1t_s"}},
      {"alya.thread_speedup", {"alya.step_1t_s", "alya.step_2t_s"}},
      {"trace.overhead_ratio",
       {"trace.traced_wall_s", "trace.untraced_wall_s"}},
  };
  return bases;
}

void timing_values(const std::vector<Span>& spans, Values& values) {
  const std::vector<double> self = self_times(spans);
  const std::vector<double> weight = weights(spans);
  const auto& defs = per_layer_metrics();
  for (std::size_t d = 0; d + 1 < defs.size(); ++d) {
    const std::string& name = defs[d].name;
    if (!is_timing(name) || defs[d + 1].name != name + ".p50") continue;
    const std::string base = timing_base(name);
    std::vector<double> samples;
    double total = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (!feeds(spans[i].name, base)) continue;
      samples.push_back(self[i]);
      total += self[i] * weight[i];
    }
    const Summary s = summarize(std::move(samples));
    values[name] = total;
    values[name + ".p50"] = s.p50;
    values[name + ".tail"] = s.tail;
    values[name + ".n"] = static_cast<double>(s.n);
  }
}

void print_layer_table(std::ostream& out, const std::string& workload,
                       const std::vector<Span>& spans, const Values& values,
                       const std::vector<std::string>& notes) {
  const std::vector<double> self = self_times(spans);
  const std::vector<double> weight = weights(spans);
  const auto root = roots(spans);

  // Wall of each phase: the mean traced pass, and the split.
  double pass_wall = 0, passes = 0, split_wall = 0;
  for (const Span& s : spans) {
    if (s.name == "run.pass") pass_wall += s.duration(), ++passes;
    if (s.name == "run.split") split_wall += s.duration();
  }
  if (passes > 0) pass_wall /= passes;

  struct Row {
    std::string phase, name;
    double self = 0;
    std::vector<double> samples;
  };
  std::map<std::pair<std::string, std::string>, Row> rows;
  std::map<std::pair<std::string, std::string>, double> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string phase = root[i] == "run.pass"    ? "pass"
                              : root[i] == "run.split" ? "split"
                                                       : "other";
    const std::string name(spans[i].name);
    Row& row = rows[{phase, name}];
    row.phase = phase;
    row.name = name;
    row.self += self[i] * weight[i];
    row.samples.push_back(self[i]);
    layers[{phase, name.substr(0, name.find('.'))}] += self[i] * weight[i];
  }
  std::vector<Row> sorted;
  for (auto& [key, row] : rows) sorted.push_back(std::move(row));
  std::sort(sorted.begin(), sorted.end(), [](const Row& a, const Row& b) {
    return a.phase != b.phase ? a.phase < b.phase : a.self > b.self;
  });
  const auto share = [&](const std::string& phase, double v) {
    const double wall = phase == "pass" ? pass_wall : split_wall;
    return wall > 0 ? 100.0 * v / wall : 0.0;
  };

  out << "== per-layer host time: " << workload << " (traced; pass = one "
      << "traced pass of " << fmt(pass_wall, "%.4f") << " s, mean of "
      << passes << "; split = the representative cells, "
      << fmt(split_wall, "%.4f") << " s) ==\n";
  char line[256];
  std::snprintf(line, sizeof line, "%-6s %-34s %12s %8s %12s %12s %-6s %8s\n",
                "phase", "span", "self s", "share%", "p50 s", "tail s",
                "tail", "n");
  out << line;
  for (const Row& row : sorted) {
    const Summary s = summarize(row.samples);
    std::snprintf(line, sizeof line,
                  "%-6s %-34s %12.6f %8.2f %12.3e %12.3e %-6s %8zu\n",
                  row.phase.c_str(), row.name.c_str(), row.self,
                  share(row.phase, row.self), s.p50, s.tail,
                  tail_label(s).c_str(), s.n);
    out << line;
  }
  out << "-- by layer (share of the phase wall; cells on the pool overlap, "
         "so shares can exceed 100) --\n";
  for (const auto& [key, seconds] : layers) {
    std::snprintf(line, sizeof line, "%-6s %-12s %12.6f s %8.2f%%\n",
                  key.first.c_str(), key.second.c_str(), seconds,
                  share(key.first, seconds));
    out << line;
  }
  const auto value = [&values](const std::string& name) {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  };
  out << "-- ratios with their bases (n/a: not exercised by this "
         "workload) --\n";
  for (const auto& [name, bases] : ratio_bases()) {
    out << name << " ";
    if (value(bases.denominator) == 0) {
      out << "n/a\n";
      continue;
    }
    out << fmt(value(name)) << " (" << bases.numerator << " "
        << fmt(value(bases.numerator)) << ", " << bases.denominator << " "
        << fmt(value(bases.denominator)) << ")\n";
  }
  for (const std::string& note : notes) out << note << "\n";
}

std::string result_json(const Outcome& outcome,
                        const std::vector<MetricDef>& defs,
                        const Values& values) {
  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    if (i > 0) json += ", ";
    json += "\"" + defs[i].name + "\": {\"value\": " + fmt(v, "%.17g") +
            ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace perfbench
