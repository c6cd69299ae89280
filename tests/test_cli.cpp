// CLI parsing, scenario materialization, and output-path probing.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.hpp"

namespace hs = hpcs::study;

namespace {
hs::CliOptions parse(std::vector<const char*> args) {
  return hs::parse_cli(std::span<const char* const>(args.data(),
                                                    args.size()));
}
}  // namespace

TEST(Cli, Defaults) {
  const auto o = parse({});
  EXPECT_EQ(o.cluster, "marenostrum4");
  EXPECT_EQ(o.runtime, "bare-metal");
  EXPECT_EQ(o.nodes, 4);
  EXPECT_FALSE(o.help);
  EXPECT_FALSE(o.timeline);
}

TEST(Cli, ParsesAllFlags) {
  const auto o = parse({"--cluster", "lenox", "--runtime", "docker",
                        "--mode", "self-contained", "--app", "artery-fsi",
                        "--nodes", "2", "--ranks", "56", "--threads", "1",
                        "--steps", "7", "--seed", "99", "--timeline"});
  EXPECT_EQ(o.cluster, "lenox");
  EXPECT_EQ(o.runtime, "docker");
  EXPECT_EQ(o.mode, "self-contained");
  EXPECT_EQ(o.app, "artery-fsi");
  EXPECT_EQ(o.nodes, 2);
  EXPECT_EQ(o.ranks, 56);
  EXPECT_EQ(o.steps, 7);
  EXPECT_EQ(o.seed, 99u);
  EXPECT_TRUE(o.timeline);
}

TEST(Cli, HelpFlag) {
  EXPECT_TRUE(parse({"--help"}).help);
  EXPECT_TRUE(parse({"-h"}).help);
  EXPECT_FALSE(hs::cli_usage().empty());
}

TEST(Cli, Errors) {
  EXPECT_THROW(parse({"--bogus"}), std::invalid_argument);
  EXPECT_THROW(parse({"--nodes"}), std::invalid_argument);
  EXPECT_THROW(parse({"--nodes", "four"}), std::invalid_argument);
  EXPECT_THROW(parse({"--seed", "-3"}), std::invalid_argument);
}

TEST(Cli, ClusterLookup) {
  EXPECT_EQ(hs::cluster_by_name("lenox").name, "Lenox");
  EXPECT_EQ(hs::cluster_by_name("mn4").name, "MareNostrum4");
  EXPECT_EQ(hs::cluster_by_name("cte-power").name, "CTE-POWER");
  EXPECT_EQ(hs::cluster_by_name("thunderx").name, "ThunderX");
  EXPECT_THROW(hs::cluster_by_name("summit"), std::invalid_argument);
}

TEST(Cli, ScenarioDefaultsFillCores) {
  auto o = parse({"--cluster", "lenox", "--nodes", "4"});
  const auto s = hs::to_scenario(o);
  EXPECT_EQ(s.ranks, 112);  // 4 nodes x 28 cores, threads=1
  EXPECT_EQ(s.threads, 1);
  EXPECT_FALSE(s.image.has_value());
}

TEST(Cli, ScenarioHybridFill) {
  auto o = parse({"--cluster", "lenox", "--nodes", "4", "--threads", "14"});
  const auto s = hs::to_scenario(o);
  EXPECT_EQ(s.ranks, 8);  // 112 cores / 14 threads
}

TEST(Cli, ScenarioBuildsImageForContainers) {
  auto o = parse({"--cluster", "lenox", "--runtime", "singularity",
                  "--mode", "self-contained", "--nodes", "2"});
  const auto s = hs::to_scenario(o);
  ASSERT_TRUE(s.image.has_value());
  EXPECT_EQ(s.image->mode(), hpcs::container::BuildMode::SelfContained);
}

TEST(Cli, ScenarioRejectsBadCombos) {
  auto o = parse({"--app", "warp-drive"});
  EXPECT_THROW(hs::to_scenario(o), std::invalid_argument);
  o = parse({"--mode", "quantum"});
  EXPECT_THROW(hs::to_scenario(o), std::invalid_argument);
  o = parse({"--cluster", "lenox", "--nodes", "9"});
  EXPECT_THROW(hs::to_scenario(o), std::invalid_argument);
}

TEST(Cli, NodesCommaListParses) {
  const auto o = parse({"--nodes", "2,4,8"});
  EXPECT_EQ(o.nodes, 2);  // single-scenario mode uses the first value
  EXPECT_EQ(o.nodes_list, (std::vector<int>{2, 4, 8}));
}

TEST(Cli, CampaignFlags) {
  const auto o = parse({"--campaign", "--jobs", "8", "--reps", "3",
                        "--csv", "out/c.csv", "--json", "out/c.json"});
  EXPECT_TRUE(o.campaign);
  EXPECT_EQ(o.jobs, 8);
  EXPECT_EQ(o.repetitions, 3);
  EXPECT_EQ(o.csv_path, "out/c.csv");
  EXPECT_EQ(o.json_path, "out/c.json");
}

TEST(Cli, CampaignFlagErrors) {
  EXPECT_THROW(parse({"--jobs", "-1"}), std::invalid_argument);
  EXPECT_THROW(parse({"--reps", "0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--nodes", "2,x"}), std::invalid_argument);
}

TEST(Cli, HazardsFlagSelectsAPresetLayeredOnFaults) {
  auto o = parse({"--hazards", "storm", "--faults", "moderate"});
  EXPECT_EQ(o.hazards, "storm");
  const auto ro = hs::to_runner_options(o);
  EXPECT_TRUE(ro.hazards.enabled);
  EXPECT_EQ(ro.hazards.name(), "storm");
  EXPECT_TRUE(ro.faults.enabled);  // hazards layer on the fault axis

  // Default: no hazards, byte-identical to the pre-hazard simulator.
  EXPECT_FALSE(hs::to_runner_options(parse({})).hazards.enabled);
  // Unknown presets fail at conversion with the candidate list.
  auto bad = parse({"--hazards", "quake"});
  EXPECT_THROW(hs::to_runner_options(bad), std::invalid_argument);
  EXPECT_THROW(parse({"--hazards", ""}), std::invalid_argument);
}

TEST(Cli, NodesListRequiresCampaign) {
  auto o = parse({"--nodes", "2,4"});
  EXPECT_THROW(hs::to_scenario(o), std::invalid_argument);
}

// --- Output-path probing (fail fast, before hours of simulation) -----------

TEST(CliProbe, EmptyPathIsSkipped) {
  EXPECT_NO_THROW(hs::probe_output_paths({{"--trace-out", ""}}));
}

TEST(CliProbe, UnwritablePathThrowsWithFlagName) {
  // /dev/null is a file, so any path beneath it can never be created.
  try {
    hs::probe_output_paths({{"--trace-out", "/dev/null/x/trace.json"}});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--trace-out"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("/dev/null/x/trace.json"),
              std::string::npos);
  }
}

TEST(CliProbe, RemovesProbeFileButKeepsExistingData) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "hpcs_cli_probe_test";
  fs::remove_all(dir);

  // A fresh path (in a directory the probe itself creates) leaves no
  // residue behind...
  const fs::path fresh = dir / "sub" / "new.csv";
  EXPECT_NO_THROW(hs::probe_output_paths({{"--csv", fresh.string()}}));
  EXPECT_FALSE(fs::exists(fresh));

  // ...and an existing file keeps its bytes (append-mode probe).
  const fs::path existing = dir / "old.csv";
  {
    std::ofstream out(existing);
    out << "precious\n";
  }
  EXPECT_NO_THROW(hs::probe_output_paths({{"--csv", existing.string()}}));
  ASSERT_TRUE(fs::exists(existing));
  std::ifstream in(existing);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "precious\n");
  in.close();
  fs::remove_all(dir);
}

TEST(CliProbe, ValidateGatesCampaignOutputsOnCampaignMode) {
  auto o = parse({"--csv", "/dev/null/x/c.csv"});
  // Single-scenario mode never writes --csv, so a bad path is tolerated...
  EXPECT_NO_THROW(hs::validate_output_paths(o));
  // ...but campaign mode probes it.
  o.campaign = true;
  EXPECT_THROW(hs::validate_output_paths(o), std::invalid_argument);
  // Trace/metrics paths are probed in either mode.
  auto t = parse({"--trace-out", "/dev/null/x/t.json"});
  EXPECT_THROW(hs::validate_output_paths(t), std::invalid_argument);
  auto m = parse({"--campaign", "--metrics-out", "/dev/null/x/m.json"});
  EXPECT_THROW(hs::validate_output_paths(m), std::invalid_argument);
}

// --- Shared flag-value parsers (study_cli and the bench programs) -------

TEST(CliParsers, NumbersMustSpanTheWholeValue) {
  EXPECT_EQ(hs::parse_int("--jobs", "4"), 4);
  EXPECT_EQ(hs::parse_int("--jobs", "-3"), -3);
  EXPECT_THROW(hs::parse_int("--jobs", "4x"), std::invalid_argument);
  EXPECT_THROW(hs::parse_int("--jobs", ""), std::invalid_argument);
  EXPECT_DOUBLE_EQ(hs::parse_double("--rate", "0.25"), 0.25);
  EXPECT_THROW(hs::parse_double("--rate", "4x"), std::invalid_argument);
  EXPECT_THROW(hs::parse_double("--rate", "x"), std::invalid_argument);
}

TEST(CliParsers, U64RejectsNegativeAndOverflow) {
  EXPECT_EQ(hs::parse_u64("--seed", "18446744073709551615"),
            18446744073709551615ull);
  EXPECT_THROW(hs::parse_u64("--seed", "-1"), std::invalid_argument);
  EXPECT_THROW(hs::parse_u64("--seed", "18446744073709551616"),
               std::invalid_argument);
  EXPECT_THROW(hs::parse_u64("--seed", "20abc"), std::invalid_argument);
}

TEST(CliParsers, ErrorsNameTheFlagAndTheValue) {
  try {
    (void)hs::parse_int("--njobs", "20abc");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--njobs"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("20abc"), std::string::npos);
  }
}

TEST(CliParsers, ListsDropEmptyItems) {
  EXPECT_EQ(hs::split_list("1,,x"), (std::vector<std::string>{"1", "x"}));
  EXPECT_EQ(hs::split_list(",a,"), (std::vector<std::string>{"a"}));
  EXPECT_TRUE(hs::split_list("").empty());
  EXPECT_EQ(hs::parse_double_list("--loads", "0.5,,2"),
            (std::vector<double>{0.5, 2.0}));
  EXPECT_THROW(hs::parse_double_list("--loads", "1,,x"),
               std::invalid_argument);
  EXPECT_THROW(hs::parse_double_list("--loads", ""), std::invalid_argument);
  EXPECT_THROW(hs::parse_double_list("--loads", ","), std::invalid_argument);
}

TEST(CliOutputs, SavesRequestedOutputsAndSkipsEmptyPaths) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "hpcs_cli_outputs_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path path = dir / "out.csv";
  int writes = 0;
  std::ostringstream log, err;
  EXPECT_TRUE(hs::save_outputs(
      {{path.string(), [&](std::ostream& out) { out << "a,b\n"; ++writes; }},
       {"", [&](std::ostream&) { ++writes; }}},
      log, err));
  EXPECT_EQ(writes, 1);
  EXPECT_EQ(log.str(), "[saved " + path.string() + "]\n");
  EXPECT_EQ(err.str(), "");
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "a,b\n");
  in.close();
  fs::remove_all(dir);
}

TEST(CliOutputs, StopsAtTheFirstUnwritablePath) {
  int writes = 0;
  std::ostringstream log, err;
  EXPECT_FALSE(hs::save_outputs(
      {{"/dev/null/x/a.csv", [&](std::ostream&) { ++writes; }},
       {"/dev/null/x/b.csv", [&](std::ostream&) { ++writes; }}},
      log, err));
  EXPECT_EQ(writes, 0);
  EXPECT_EQ(log.str(), "");
  EXPECT_EQ(err.str(), "error: cannot write '/dev/null/x/a.csv'\n");
}

TEST(CliOutputs, RejectedRunLeavesNoDirectoriesBehind) {
  // bench_gateway --csv out/g.csv --trace-out blocker/t.json, with blocker
  // a file: the --csv probe creates out/, the --trace-out probe fails, and
  // the run exits 2.  The directory the first probe made must go again,
  // while everything that existed before stays.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "hpcs_cli_rejected_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path blocker = dir / "blocker";
  std::ofstream(blocker) << "a file, not a directory\n";
  EXPECT_THROW(
      hs::probe_output_paths(
          {{"--csv", (dir / "out" / "nested" / "g.csv").string()},
           {"--trace-out", (blocker / "t.json").string()}}),
      std::invalid_argument);
  EXPECT_FALSE(fs::exists(dir / "out"));
  EXPECT_TRUE(fs::is_regular_file(blocker));
  EXPECT_TRUE(fs::is_directory(dir));
  // study_cli's probes roll back the same way.
  const auto o = parse({"--campaign", "--trace-out",
                        (dir / "traces" / "t.json").string().c_str(),
                        "--csv", (blocker / "c.csv").string().c_str()});
  EXPECT_THROW(hs::validate_output_paths(o), std::invalid_argument);
  EXPECT_FALSE(fs::exists(dir / "traces"));
  fs::remove_all(dir);
}
