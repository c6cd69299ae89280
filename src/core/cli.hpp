#pragma once

/// \file cli.hpp
/// \brief Command-line front end for the study runner.
///
/// Powers examples/study_cli; the parsing lives in the library so it is
/// unit-testable.  Flags:
///
///   --cluster  lenox | marenostrum4 | cte-power | thunderx
///   --runtime  bare-metal | docker | singularity | shifter
///   --mode     system-specific | self-contained
///   --app      artery-cfd | artery-fsi
///   --nodes N  --ranks R (0 = one per core)  --threads T
///   --steps S  --seed X  --timeline  --help
///   --trace-out FILE (Chrome trace JSON)  --metrics-out FILE (metrics
///   JSON); either flag enables the observability collector
///
/// Campaign mode (--campaign) sweeps the cartesian product instead of one
/// point: --cluster/--runtime/--mode/--app/--nodes accept comma-separated
/// lists, --jobs N sets the worker threads, --reps R the repetitions, and
/// --csv/--json the per-cell and summary output paths.
///
/// Fault injection: --faults takes preset names (none | light | moderate |
/// heavy; a comma list adds a fault axis in campaign mode), --hazards
/// layers a correlated-hazard preset on top (none | rack-burst | brownout
/// | gray | partition | storm), --mtbf
/// overrides the per-node MTBF of enabled presets, --checkpoint-interval
/// sets the checkpoint cadence, and --cell-retries bounds re-executions of
/// fault-failed campaign cells.

#include <cstdint>
#include <functional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/scenario.hpp"

namespace hpcs::study {

struct CliOptions {
  std::string cluster = "marenostrum4";
  std::string runtime = "bare-metal";
  std::string mode = "system-specific";
  std::string app = "artery-cfd";
  int nodes = 4;
  std::vector<int> nodes_list = {4};  ///< every --nodes value (comma list)
  int ranks = 0;  ///< 0: fill every core with single-thread ranks
  int threads = 1;
  int steps = 10;
  std::uint64_t seed = 42;
  bool timeline = false;
  bool help = false;
  /// Campaign mode.
  bool campaign = false;
  int jobs = 1;  ///< campaign worker threads; 0 = hardware concurrency
  int repetitions = 1;
  std::string csv_path = "results/campaign.csv";
  std::string json_path = "results/campaign.json";
  /// Fault presets (--faults, comma list); empty = fault-free.
  std::vector<std::string> faults_list;
  /// Correlated-hazard preset (--hazards); empty = hazard-free.
  std::string hazards;
  double mtbf = 0.0;  ///< 0: keep each preset's MTBF
  double checkpoint_interval = -1.0;  ///< < 0: policy default
  int cell_retries = 1;
  /// Observability outputs (--trace-out / --metrics-out); a non-empty
  /// path turns RunnerOptions::observe on.
  std::string trace_path;
  std::string metrics_path;
  /// Temporal telemetry (--timeseries-out + --window); a non-empty path
  /// turns the observability collector *and* the windowed store on.
  std::string timeseries_path;
  double window_s = 60.0;  ///< --window; window width in simulated seconds
};

/// Flag-value parsers shared by study_cli and the bench programs.  Each
/// accepts only the whole string as a number.
/// \throws std::invalid_argument naming \p flag on malformed input.
int parse_int(const std::string& flag, const std::string& value);
std::uint64_t parse_u64(const std::string& flag, const std::string& value);
double parse_double(const std::string& flag, const std::string& value);

/// Splits a comma-separated list, dropping empty items.
std::vector<std::string> split_list(const std::string& value);

/// A comma-separated list of numbers.
/// \throws std::invalid_argument naming \p flag for a malformed item or
///         an empty list.
std::vector<double> parse_double_list(const std::string& flag,
                                      const std::string& value);

/// Parses argv-style arguments (excluding argv[0]).
/// \throws std::invalid_argument with a helpful message on bad input.
CliOptions parse_cli(std::span<const char* const> args);

/// Resolves a cluster preset by CLI name.
/// \throws std::invalid_argument for unknown names.
hw::ClusterSpec cluster_by_name(const std::string& name);

/// Materializes the scenario (builds the image for containerized runs).
/// \throws std::invalid_argument for inconsistent options.
Scenario to_scenario(const CliOptions& options);

/// Materializes the campaign grid from the (comma-separated) option lists.
/// Bare-metal contributes one variant regardless of the mode list; every
/// containerized runtime is crossed with every mode, and every --faults
/// preset (with --mtbf applied) becomes a fault-axis entry.
/// \throws std::invalid_argument for unknown names or empty lists.
CampaignSpec to_campaign_spec(const CliOptions& options);

/// Runner options implied by the CLI flags (observation, checkpoint
/// policy, and — in single-scenario mode — --timeline and the one
/// --faults preset).
/// \throws std::invalid_argument for unknown preset names, or a multi-entry
///         --faults list without --campaign.
RunnerOptions to_runner_options(const CliOptions& options);

/// One output destination named on the command line.
struct OutputFlag {
  std::string flag;  ///< e.g. "--csv", quoted in the error message
  std::string path;  ///< empty: not requested, skipped
};

/// Probe-opens every path for writing (creating parent directories
/// first), so a bad output destination fails at parse time instead of
/// after a full campaign run.  A file newly created by the probe is
/// removed again; an existing file is left untouched (the probe opens in
/// append mode and writes nothing).  When a path is unwritable, the
/// directories this call created are removed again before the exception
/// propagates, so a rejected run leaves nothing behind.
/// \throws std::invalid_argument naming the first unwritable flag.
void probe_output_paths(const std::vector<OutputFlag>& outputs);

/// One artifact a program writes once its run finished.
struct OutputFile {
  std::string path;  ///< empty: not requested, skipped
  std::function<void(std::ostream&)> write;
};

/// Writes every requested output in order, reporting "[saved PATH]" to
/// \p log.  Stops at the first file that cannot be written, reports
/// "error: cannot write 'PATH'" to \p err and returns false.
bool save_outputs(const std::vector<OutputFile>& outputs, std::ostream& log,
                  std::ostream& err);

/// Probes every output path the run will write: --trace-out and
/// --metrics-out always, --csv/--json in campaign mode (single runs
/// don't write them).  Empty paths are skipped.
/// \throws std::invalid_argument naming the offending flag.
void validate_output_paths(const CliOptions& options);

/// The usage/help text.
std::string cli_usage();

}  // namespace hpcs::study
