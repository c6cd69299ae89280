#include "core/cli.hpp"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "core/images.hpp"
#include "fault/hazard.hpp"
#include "hw/presets.hpp"

namespace hpcs::study {

int parse_int(const std::string& flag, const std::string& value) {
  int out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size())
    throw std::invalid_argument(flag + ": not an integer: '" + value + "'");
  return out;
}

std::uint64_t parse_u64(const std::string& flag, const std::string& value) {
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size())
    throw std::invalid_argument(flag + ": not an integer: '" + value + "'");
  return out;
}

double parse_double(const std::string& flag, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double out = std::stod(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument(flag + ": not a number: '" + value + "'");
  }
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t comma = value.find(',', start);
    const std::size_t end = comma == std::string::npos ? value.size() : comma;
    if (end > start) out.push_back(value.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::vector<double> parse_double_list(const std::string& flag,
                                      const std::string& value) {
  std::vector<double> out;
  for (const auto& item : split_list(value))
    out.push_back(parse_double(flag, item));
  if (out.empty())
    throw std::invalid_argument(flag + ": empty list: '" + value + "'");
  return out;
}

namespace {

std::vector<int> parse_int_list(const std::string& flag,
                                const std::string& value) {
  std::vector<int> out;
  for (const auto& item : split_list(value))
    out.push_back(parse_int(flag, item));
  if (out.empty())
    throw std::invalid_argument(flag + ": empty list: '" + value + "'");
  return out;
}

}  // namespace

CliOptions parse_cli(std::span<const char* const> args) {
  CliOptions o;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string flag = args[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= args.size())
        throw std::invalid_argument(flag + ": missing value");
      return args[++i];
    };
    if (flag == "--help" || flag == "-h") {
      o.help = true;
    } else if (flag == "--timeline") {
      o.timeline = true;
    } else if (flag == "--cluster") {
      o.cluster = value();
    } else if (flag == "--runtime") {
      o.runtime = value();
    } else if (flag == "--mode") {
      o.mode = value();
    } else if (flag == "--app") {
      o.app = value();
    } else if (flag == "--nodes") {
      o.nodes_list = parse_int_list(flag, value());
      o.nodes = o.nodes_list.front();
    } else if (flag == "--ranks") {
      o.ranks = parse_int(flag, value());
    } else if (flag == "--threads") {
      o.threads = parse_int(flag, value());
    } else if (flag == "--steps") {
      o.steps = parse_int(flag, value());
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, value());
    } else if (flag == "--campaign") {
      o.campaign = true;
    } else if (flag == "--jobs") {
      o.jobs = parse_int(flag, value());
      if (o.jobs < 0)
        throw std::invalid_argument("--jobs: must be >= 0");
    } else if (flag == "--reps") {
      o.repetitions = parse_int(flag, value());
      if (o.repetitions < 1)
        throw std::invalid_argument("--reps: must be >= 1");
    } else if (flag == "--csv") {
      o.csv_path = value();
    } else if (flag == "--json") {
      o.json_path = value();
    } else if (flag == "--faults") {
      o.faults_list = split_list(value());
      if (o.faults_list.empty())
        throw std::invalid_argument("--faults: empty list");
    } else if (flag == "--hazards") {
      o.hazards = value();
      if (o.hazards.empty())
        throw std::invalid_argument("--hazards: empty preset name");
    } else if (flag == "--mtbf") {
      o.mtbf = parse_double(flag, value());
      if (o.mtbf <= 0)
        throw std::invalid_argument("--mtbf: must be > 0");
    } else if (flag == "--checkpoint-interval") {
      o.checkpoint_interval = parse_double(flag, value());
      if (o.checkpoint_interval < 0)
        throw std::invalid_argument("--checkpoint-interval: must be >= 0");
    } else if (flag == "--trace-out") {
      o.trace_path = value();
    } else if (flag == "--metrics-out") {
      o.metrics_path = value();
    } else if (flag == "--timeseries-out") {
      o.timeseries_path = value();
    } else if (flag == "--window") {
      o.window_s = parse_double(flag, value());
      if (o.window_s <= 0)
        throw std::invalid_argument("--window: must be > 0");
    } else if (flag == "--cell-retries") {
      o.cell_retries = parse_int(flag, value());
      if (o.cell_retries < 0)
        throw std::invalid_argument("--cell-retries: must be >= 0");
    } else {
      throw std::invalid_argument("unknown flag '" + flag + "'\n" +
                                  cli_usage());
    }
  }
  return o;
}

hw::ClusterSpec cluster_by_name(const std::string& name) {
  if (name == "lenox") return hw::presets::lenox();
  if (name == "marenostrum4" || name == "mn4")
    return hw::presets::marenostrum4();
  if (name == "cte-power" || name == "cte_power" || name == "power9")
    return hw::presets::cte_power();
  if (name == "thunderx") return hw::presets::thunderx();
  throw std::invalid_argument(
      "unknown cluster '" + name +
      "' (try lenox, marenostrum4, cte-power, thunderx)");
}

namespace {

AppCase app_from_string(const std::string& name) {
  if (name == "artery-cfd") return AppCase::ArteryCfd;
  if (name == "artery-fsi") return AppCase::ArteryFsi;
  throw std::invalid_argument("unknown app '" + name +
                              "' (artery-cfd | artery-fsi)");
}

container::BuildMode mode_from_string(const std::string& name) {
  if (name == "system-specific") return container::BuildMode::SystemSpecific;
  if (name == "self-contained") return container::BuildMode::SelfContained;
  throw std::invalid_argument("unknown mode '" + name +
                              "' (system-specific | self-contained)");
}

hpcs::fault::FaultSpec fault_from_cli(const CliOptions& o,
                                      const std::string& name) {
  auto spec = hpcs::fault::FaultSpec::preset(name);
  if (spec.enabled && o.mtbf > 0) spec.node_mtbf_s = o.mtbf;
  return spec;
}

}  // namespace

Scenario to_scenario(const CliOptions& o) {
  if (o.nodes_list.size() > 1)
    throw std::invalid_argument("--nodes list requires --campaign");
  const auto cluster = cluster_by_name(o.cluster);
  const auto runtime = container::runtime_from_string(o.runtime);
  const auto app = app_from_string(o.app);
  const auto mode = mode_from_string(o.mode);

  const int ranks =
      o.ranks > 0 ? o.ranks : o.nodes * cluster.node.cpu.cores() / o.threads;

  Scenario s{.cluster = cluster,
             .runtime = runtime,
             .app = app,
             .nodes = o.nodes,
             .ranks = ranks,
             .threads = o.threads,
             .time_steps = o.steps,
             .seed = o.seed};
  if (runtime != container::RuntimeKind::BareMetal)
    s.image = alya_image(cluster, runtime, mode);
  s.validate();
  return s;
}

CampaignSpec to_campaign_spec(const CliOptions& o) {
  CampaignSpec spec;
  spec.name = "study-cli-campaign";
  for (const auto& name : split_list(o.cluster))
    spec.cluster(cluster_by_name(name));

  const auto modes = split_list(o.mode);
  if (modes.empty())
    throw std::invalid_argument("--mode: empty list");
  for (const auto& rt_name : split_list(o.runtime)) {
    const auto rt = container::runtime_from_string(rt_name);
    if (rt == container::RuntimeKind::BareMetal) {
      spec.variant(rt);
    } else {
      for (const auto& mode_name : modes)
        spec.variant(rt, mode_from_string(mode_name));
    }
  }
  for (const auto& app_name : split_list(o.app))
    spec.app(app_from_string(app_name));
  spec.nodes(o.nodes_list);
  spec.geometry(o.ranks, o.threads);
  spec.steps(o.steps).reps(o.repetitions).seed(o.seed);
  for (const auto& fault_name : o.faults_list)
    spec.fault(fault_from_cli(o, fault_name));
  spec.validate();
  return spec;
}

void probe_output_paths(const std::vector<OutputFlag>& outputs) {
  namespace fs = std::filesystem;
  std::error_code ec;  // directory problems surface via the open below
  std::vector<fs::path> created;  // in creation order
  try {
    for (const OutputFlag& output : outputs) {
      if (output.path.empty()) continue;
      const fs::path target(output.path);
      std::vector<fs::path> missing;  // deepest first
      for (fs::path dir = target.parent_path(); !dir.empty();
           dir = dir.parent_path()) {
        if (fs::status(dir, ec).type() != fs::file_type::not_found) break;
        missing.push_back(dir);
      }
      if (!missing.empty()) fs::create_directories(missing.front(), ec);
      // Removing one that could not be made is a harmless no-op.
      created.insert(created.end(), missing.rbegin(), missing.rend());
      const bool existed = fs::exists(target, ec);
      {
        // Append mode: proves writability without truncating existing
        // data.
        std::ofstream probe(output.path, std::ios::app);
        if (!probe)
          throw std::invalid_argument(output.flag + ": cannot open '" +
                                      output.path + "' for writing");
      }
      if (!existed) fs::remove(target, ec);
    }
  } catch (...) {
    for (auto dir = created.rbegin(); dir != created.rend(); ++dir)
      fs::remove(*dir, ec);
    throw;
  }
}

bool save_outputs(const std::vector<OutputFile>& outputs, std::ostream& log,
                  std::ostream& err) {
  for (const OutputFile& output : outputs) {
    if (output.path.empty()) continue;
    std::ofstream out(output.path);
    if (out) output.write(out);
    out.close();  // a failed open, write or final flush all fail here
    if (!out) {
      err << "error: cannot write '" << output.path << "'\n";
      return false;
    }
    log << "[saved " << output.path << "]\n";
  }
  return true;
}

void validate_output_paths(const CliOptions& o) {
  std::vector<OutputFlag> outputs = {{"--trace-out", o.trace_path},
                                     {"--metrics-out", o.metrics_path},
                                     {"--timeseries-out", o.timeseries_path}};
  if (o.campaign) {
    outputs.push_back({"--csv", o.csv_path});
    outputs.push_back({"--json", o.json_path});
  }
  probe_output_paths(outputs);
}

RunnerOptions to_runner_options(const CliOptions& o) {
  RunnerOptions ro;
  // A single run's --timeline totals are summed from the trace's phase
  // spans; a campaign never prints them, so there it observes nothing.
  ro.observe = !o.trace_path.empty() || !o.metrics_path.empty() ||
               !o.timeseries_path.empty() || (o.timeline && !o.campaign);
  if (!o.timeseries_path.empty()) ro.timeseries_window_s = o.window_s;
  if (o.checkpoint_interval >= 0)
    ro.checkpoint.interval_s = o.checkpoint_interval;
  if (!o.campaign && !o.faults_list.empty()) {
    if (o.faults_list.size() > 1)
      throw std::invalid_argument(
          "--faults: a list of presets requires --campaign");
    ro.faults = fault_from_cli(o, o.faults_list.front());
  }
  if (!o.hazards.empty())
    ro.hazards = fault::HazardSpec::preset(o.hazards);
  ro.validate();
  return ro;
}

std::string cli_usage() {
  return R"(usage: study_cli [flags]
  --cluster NAME   lenox | marenostrum4 | cte-power | thunderx
  --runtime NAME   bare-metal | docker | singularity | shifter
  --mode MODE      system-specific | self-contained
  --app APP        artery-cfd | artery-fsi
  --nodes N        nodes to allocate (default 4)
  --ranks R        MPI ranks (0 = one per core / threads)
  --threads T      OpenMP threads per rank (default 1)
  --steps S        simulated time steps (default 10)
  --seed X         RNG seed (default 42)
  --timeline       record and print the phase timeline
  --help           this text

observability (simulated-time spans + metrics; off = zero cost):
  --trace-out PATH   write a Chrome trace-event JSON (chrome://tracing /
                     Perfetto); in campaign mode one process per cell
  --metrics-out PATH write the metrics registry as JSON (campaign mode
                     aggregates all cells)
  --timeseries-out PATH
                     write windowed time-series telemetry as CSV (campaign
                     mode: one scope per cell plus an aggregate scope;
                     PATH.json gets the aggregate hpcs-timeseries-v1
                     JSON for hpcs-report --timeseries/--slo)
  --window SECONDS   time-series window width in simulated seconds
                     (default 60)

fault injection (default: fault-free, bit-identical to no flags):
  --faults LIST    none | light | moderate | heavy; a comma list adds a
                   fault axis in campaign mode
  --hazards NAME   correlated-hazard preset layered on --faults: none |
                   rack-burst | brownout | gray | partition | storm
  --mtbf SECONDS   override the per-node MTBF of enabled presets
  --checkpoint-interval SECONDS
                   work between checkpoints (0 = restart from scratch)
  --cell-retries N re-runs granted to fault-failed campaign cells

campaign mode (sweeps the cartesian product of the lists):
  --campaign       run a campaign; --cluster/--runtime/--mode/--app/--nodes
                   then accept comma-separated lists
  --jobs N         campaign worker threads (0 = hardware concurrency)
  --reps R         repetitions per cell (default 1)
  --csv PATH       per-cell CSV output (default results/campaign.csv)
  --json PATH      campaign summary JSON (default results/campaign.json)
)";
}

}  // namespace hpcs::study
