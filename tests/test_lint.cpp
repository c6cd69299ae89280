// hpcs-lint's own test suite: every rule has a known-bad and known-good
// fixture under tools/hpcs-lint/fixtures/ (asserted down to exact rule
// IDs and line numbers), suppressions are honored only with a written
// reason, the include-graph pass (layer DAG, cycles, self-containment)
// is exercised against mini-trees under fixtures/layering/, the module
// DOT export is pinned as a golden snapshot, and — the point of the tool
// — the real source tree lints clean.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph.hpp"
#include "lint.hpp"

namespace {

using hpcs::lint::AllowEntry;
using hpcs::lint::build_include_graph;
using hpcs::lint::check_include_cycles;
using hpcs::lint::check_layering;
using hpcs::lint::Finding;
using hpcs::lint::IncludeRef;
using hpcs::lint::LayerSpec;
using hpcs::lint::lint_text;
using hpcs::lint::lint_tree;
using hpcs::lint::module_dot;
using hpcs::lint::parse_layers;
using hpcs::lint::ProjectGraph;
using hpcs::lint::Report;
using hpcs::lint::ScannedFile;
using hpcs::lint::scan_source;

std::string fixture(const std::string& name) {
  const std::string path = std::string(HPCS_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string fixture_dir(const std::string& name) {
  return std::string(HPCS_LINT_FIXTURE_DIR) + "/" + name;
}

struct Expected {
  int line;
  const char* rule;
};

void expect_findings(const std::string& fake_path, const std::string& name,
                     const std::vector<Expected>& expected) {
  const std::vector<Finding> got = lint_text(fake_path, fixture(name));
  ASSERT_EQ(got.size(), expected.size())
      << "fixture " << name << " linted as " << fake_path;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i].line, expected[i].line) << name << " finding " << i;
    EXPECT_EQ(got[i].rule, expected[i].rule) << name << " finding " << i;
  }
}

TEST(LintRules, Det001FlagsWallClockReads) {
  expect_findings("src/hw/fixture.cpp", "det001_bad.cpp",
                  {{6, "DET-001"}, {8, "DET-001"}});
}

TEST(LintRules, Det001IgnoresMethodNamesCommentsAndStrings) {
  expect_findings("src/hw/fixture.cpp", "det001_good.cpp", {});
}

TEST(LintRules, Det002FlagsAdHocRng) {
  expect_findings("src/hw/fixture.cpp", "det002_bad.cpp",
                  {{5, "DET-002"}, {6, "DET-002"}, {7, "DET-002"}});
}

TEST(LintRules, Det002IgnoresMemberAccessAndLookalikes) {
  expect_findings("src/hw/fixture.cpp", "det002_good.cpp", {});
}

TEST(LintRules, Det003FlagsUnorderedContainersInWriters) {
  // The unordered loop body also reaches `out <<`, so flow-aware DET-005
  // fires alongside the per-line DET-003s.
  expect_findings("src/core/extra_csv.cpp", "det003_bad_csv.cpp",
                  {{3, "DET-003"}, {6, "DET-003"}, {7, "DET-005"}});
}

TEST(LintRules, Det003AcceptsOrderedContainersInWriters) {
  expect_findings("src/core/extra_csv.cpp", "det003_good_csv.cpp", {});
}

TEST(LintRules, Det003IsScopedToSerializationPaths) {
  expect_findings("src/hw/lookup.cpp", "det003_scope.cpp", {});
  // The same content in an export-named file is in scope.
  expect_findings("src/hw/lookup_export.cpp", "det003_scope.cpp",
                  {{3, "DET-003"}, {5, "DET-003"}});
}

TEST(LintRules, Det004FlagsThreadIdentity) {
  expect_findings("src/core/fixture.cpp", "det004_bad.cpp",
                  {{5, "DET-004"}, {5, "DET-004"}, {7, "DET-004"}});
}

TEST(LintRules, Det004IgnoresOrdinaryIdMembers) {
  expect_findings("src/core/fixture.cpp", "det004_good.cpp", {});
}

TEST(LintRules, Hyg001FlagsUsingNamespaceInHeaders) {
  expect_findings("src/hw/fixture.hpp", "hyg001_bad.hpp",
                  {{5, "HYG-001"}});
}

TEST(LintRules, Hyg001AcceptsNamedUsingDeclarations) {
  expect_findings("src/hw/fixture.hpp", "hyg001_good.hpp", {});
}

TEST(LintRules, Hyg001DoesNotApplyToSourceFiles) {
  // The same using-directive content linted as a .cpp is fine.
  const std::vector<Finding> got =
      lint_text("src/hw/fixture.cpp", fixture("hyg001_bad.hpp"));
  EXPECT_TRUE(got.empty());
}

TEST(LintRules, Hyg002RequiresPragmaOnce) {
  expect_findings("src/hw/fixture.hpp", "hyg002_bad.hpp",
                  {{1, "HYG-002"}});
  expect_findings("src/hw/fixture.hpp", "hyg002_good.hpp", {});
}

TEST(LintRules, Hyg003FlagsConsoleIoInLibraryCode) {
  expect_findings("src/core/fixture.cpp", "hyg003_bad.cpp",
                  {{6, "HYG-003"}, {7, "HYG-003"}, {8, "HYG-003"}});
}

TEST(LintRules, Hyg003ExemptsBenchExamplesTests) {
  expect_findings("examples/fixture.cpp", "hyg003_bad.cpp", {});
  expect_findings("bench/fixture.cpp", "hyg003_bad.cpp", {});
  expect_findings("tests/fixture.cpp", "hyg003_bad.cpp", {});
}

TEST(LintRules, Hyg003AcceptsCallerStreams) {
  expect_findings("src/core/fixture.cpp", "hyg003_good.cpp", {});
}

TEST(LintRules, Hyg004FlagsTaskPoolConstructionOutsideTheGridRunner) {
  const std::vector<Expected> each_construction = {
      {9, "HYG-004"}, {11, "HYG-004"}, {12, "HYG-004"}, {13, "HYG-004"}};
  expect_findings("src/gateway/fixture.cpp", "hyg004_bad.cpp",
                  each_construction);
  expect_findings("bench/fixture.cpp", "hyg004_bad.cpp", each_construction);
  expect_findings("examples/fixture.cpp", "hyg004_bad.cpp",
                  each_construction);
}

TEST(LintRules, Hyg004ExemptsTestsAndTheGridRunner) {
  expect_findings("tests/fixture.cpp", "hyg004_bad.cpp", {});
  expect_findings("src/core/grid.cpp", "hyg004_bad.cpp", {});
}

TEST(LintRules, Hyg004AcceptsReferencesQueriesAndRunCells) {
  expect_findings("src/sched/fixture.cpp", "hyg004_good.cpp", {});
}

TEST(LintRules, Det005FlagsUnorderedIterationReachingEmitters) {
  expect_findings("src/core/stats.cpp", "det005_bad.cpp",
                  {{9, "DET-005"}, {14, "DET-005"}, {20, "DET-005"}});
}

TEST(LintRules, Det005AcceptsOrderedSortedAndNonEmittingLoops) {
  expect_findings("src/core/stats.cpp", "det005_good.cpp", {});
}

TEST(LintRules, Det005HonorsSuppression) {
  expect_findings("src/core/stats.cpp", "det005_suppressed.cpp", {});
}

TEST(LintRules, Det006FlagsAdHocRngInNamedStreamModules) {
  expect_findings("src/fault/fixture.cpp", "det006_bad.cpp",
                  {{8, "DET-006"}, {13, "DET-006"}, {16, "DET-006"}});
  expect_findings("src/gateway/fixture.cpp", "det006_bad.cpp",
                  {{8, "DET-006"}, {13, "DET-006"}, {16, "DET-006"}});
}

TEST(LintRules, Det006AcceptsRootChildParamsAndDeclarators) {
  expect_findings("src/sched/fixture.cpp", "det006_good.cpp", {});
}

TEST(LintRules, Det006IsScopedToFaultGatewaySched) {
  // The same violations outside the named-stream modules are fine.
  expect_findings("src/hw/fixture.cpp", "det006_bad.cpp", {});
  expect_findings("src/sim/fixture.cpp", "det006_bad.cpp", {});
}

TEST(LintRules, Det006HonorsSuppression) {
  expect_findings("src/fault/fixture.cpp", "det006_suppressed.cpp", {});
}

TEST(LintRules, Con001FlagsNakedMutexLockUnlock) {
  expect_findings("src/core/fixture.cpp", "con001_bad.cpp",
                  {{7, "CON-001"},
                   {9, "CON-001"},
                   {15, "CON-001"},
                   {17, "CON-001"}});
}

TEST(LintRules, Con001AcceptsGuardsLockObjectsAndWeakPtrLock) {
  expect_findings("src/core/fixture.cpp", "con001_good.cpp", {});
}

TEST(LintRules, Con001HonorsSuppression) {
  expect_findings("src/core/fixture.cpp", "con001_suppressed.cpp", {});
}

TEST(LintRules, Con002FlagsDetachAndMissingJoin) {
  expect_findings("src/core/fixture.cpp", "con002_bad.cpp",
                  {{9, "CON-002"}, {12, "CON-002"}, {15, "CON-002"}});
}

TEST(LintRules, Con002AcceptsJoinedMovedAndReturnedThreads) {
  expect_findings("src/core/fixture.cpp", "con002_good.cpp", {});
}

TEST(LintRules, Con002HonorsSuppression) {
  expect_findings("src/core/fixture.cpp", "con002_suppressed.cpp", {});
}

TEST(LintSuppressions, ReasonedSuppressionsSilenceBothForms) {
  expect_findings("src/core/fixture.cpp", "suppress_ok.cpp", {});
}

TEST(LintSuppressions, MissingReasonIsAFindingAndDoesNotSuppress) {
  expect_findings("src/core/fixture.cpp", "suppress_missing_reason.cpp",
                  {{5, "DET-001"}, {5, "LNT-901"}});
}

TEST(LintSuppressions, UnknownRuleIsAFindingAndDoesNotSuppress) {
  expect_findings("src/core/fixture.cpp", "suppress_unknown_rule.cpp",
                  {{5, "LNT-902"}, {6, "DET-001"}});
}

TEST(LintScanner, BlanksLiteralsAndSplitsComments) {
  const ScannedFile f = scan_source(
      "src/x.cpp",
      "int a = 1'000;  // steady_clock in a comment\n"
      "const char* s = \"std::mt19937 \\\" quoted\";\n"
      "/* block\n"
      "   rand() */ int b = 2;\n");
  ASSERT_EQ(f.lines.size(), 5u);  // trailing newline yields an empty line
  EXPECT_EQ(f.lines[0].code, "int a = 1'000;  ");
  EXPECT_EQ(f.lines[0].comment, " steady_clock in a comment");
  EXPECT_EQ(f.lines[1].code, "const char* s = \"\";");
  EXPECT_EQ(f.lines[3].code, " int b = 2;");
  EXPECT_EQ(f.lines[3].comment, "   rand() ");
}

TEST(LintScanner, RawStringsAreBlanked) {
  const ScannedFile f = scan_source(
      "src/x.cpp", "auto j = R\"({\"clock\": \"steady_clock\"})\";\n");
  // Everything between the raw-string quotes is blanked, so no rule can
  // fire on the JSON payload.
  EXPECT_EQ(f.lines[0].code.find("steady_clock"), std::string::npos);
  EXPECT_NE(f.lines[0].code.find("auto j = R\""), std::string::npos);
}

TEST(LintScanner, HardenedAgainstRawStringVariants) {
  // Banned identifiers inside plain, delimited, and prefixed raw strings
  // (u8R, LR) — including multi-line bodies — never produce findings.
  expect_findings("src/core/fixture.cpp", "scanner_raw_strings.cpp", {});
}

TEST(LintScanner, HardenedAgainstTrickyLiterals) {
  // '//' inside string literals, quotes inside block comments, escaped
  // quotes, and backslash-continued lines stay out of the code channel.
  expect_findings("src/core/fixture.cpp", "scanner_tricky_literals.cpp",
                  {});
}

TEST(LintScanner, LineContinuationExtendsLineComments) {
  const ScannedFile f = scan_source("src/x.cpp",
                                    "// comment continues \\\n"
                                    "srand(42);\n"
                                    "int ok = 1;\n");
  EXPECT_EQ(f.lines[1].code.find("srand"), std::string::npos);
  EXPECT_NE(f.lines[2].code.find("int ok"), std::string::npos);
}

TEST(LintScanner, IncludeTargetsSurviveLexing) {
  // String blanking must not eat quoted include paths: the graph pass
  // reads them from the lexed code channel.
  const ScannedFile f = scan_source("src/a/x.hpp",
                                    "#pragma once\n"
                                    "#include \"sim/rng.hpp\"\n"
                                    "#include <vector>\n"
                                    "const char* s = \"blanked\";\n");
  EXPECT_NE(f.lines[1].code.find("\"sim/rng.hpp\""), std::string::npos);
  EXPECT_EQ(f.lines[3].code.find("blanked"), std::string::npos);
}

// --- include graph ---------------------------------------------------------

ScannedFile file_of(const std::string& path, const std::string& content) {
  return scan_source(path, content);
}

TEST(LintGraph, QuotedIncludesResolveDirRelativeThenSrcRoot) {
  const std::vector<ScannedFile> files = {
      file_of("src/alya/mesh.hpp",
              "#pragma once\n"
              "#include \"partition.hpp\"\n"   // sibling, dir-relative
              "#include \"sim/rng.hpp\"\n"     // src-root relative
              "#include <vector>\n"),          // external
      file_of("src/alya/partition.hpp", "#pragma once\n"),
      file_of("src/sim/rng.hpp", "#pragma once\n"),
  };
  const ProjectGraph graph = build_include_graph(files);
  const std::vector<IncludeRef>& refs = graph.files.at("src/alya/mesh.hpp");
  ASSERT_EQ(refs.size(), 3u);
  EXPECT_EQ(refs[0].resolved, "src/alya/partition.hpp");
  EXPECT_EQ(refs[1].resolved, "src/sim/rng.hpp");
  EXPECT_TRUE(refs[2].angled);
  EXPECT_EQ(refs[2].resolved, "");  // <vector> is external
}

TEST(LintGraph, RelativePathIncludesNormalize) {
  const std::vector<ScannedFile> files = {
      file_of("src/net/fabric.hpp",
              "#pragma once\n#include \"../sim/rng.hpp\"\n"),
      file_of("src/sim/rng.hpp", "#pragma once\n"),
  };
  const ProjectGraph graph = build_include_graph(files);
  EXPECT_EQ(graph.files.at("src/net/fabric.hpp")[0].resolved,
            "src/sim/rng.hpp");
}

TEST(LintGraph, CommentedOutIncludesDoNotCount) {
  const std::vector<ScannedFile> files = {
      file_of("src/a/x.hpp", "#pragma once\n// #include \"a/y.hpp\"\n"),
      file_of("src/a/y.hpp", "#pragma once\n"),
  };
  const ProjectGraph graph = build_include_graph(files);
  EXPECT_TRUE(graph.files.at("src/a/x.hpp").empty());
}

TEST(LintGraph, CycleDetectionReportsEachCycleOnce) {
  const std::vector<ScannedFile> files = {
      file_of("src/m/a.hpp", "#pragma once\n#include \"m/b.hpp\"\n"),
      file_of("src/m/b.hpp", "#pragma once\n#include \"m/c.hpp\"\n"),
      file_of("src/m/c.hpp", "#pragma once\n#include \"m/a.hpp\"\n"),
  };
  const std::vector<Finding> got =
      check_include_cycles(build_include_graph(files));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].rule, "LAY-002");
  // Reported at the lexicographically smallest member's include line.
  EXPECT_EQ(got[0].file, "src/m/a.hpp");
  EXPECT_EQ(got[0].line, 2);
}

TEST(LintGraph, AcyclicGraphHasNoCycleFindings) {
  const std::vector<ScannedFile> files = {
      file_of("src/m/a.hpp", "#pragma once\n#include \"m/b.hpp\"\n"),
      file_of("src/m/b.hpp", "#pragma once\n"),
  };
  EXPECT_TRUE(check_include_cycles(build_include_graph(files)).empty());
}

TEST(LintGraph, LayerSpecParsesAndRejectsMalformedInput) {
  std::string error;
  const LayerSpec spec =
      parse_layers("# comment\nlayer sim\nlayer net fault\n", &error);
  EXPECT_TRUE(error.empty());
  ASSERT_EQ(spec.layers.size(), 2u);
  EXPECT_EQ(spec.rank.at("sim"), 0);
  EXPECT_EQ(spec.rank.at("net"), 1);
  EXPECT_EQ(spec.rank.at("fault"), 1);

  error.clear();
  EXPECT_TRUE(parse_layers("tier sim\n", &error).empty());
  EXPECT_NE(error.find("expected 'layer"), std::string::npos);

  error.clear();
  EXPECT_TRUE(parse_layers("layer sim\nlayer sim\n", &error).empty());
  EXPECT_NE(error.find("declared twice"), std::string::npos);
}

TEST(LintGraph, UpwardAndCrossLayerIncludesAreFlagged) {
  std::string error;
  const LayerSpec spec = parse_layers("layer low other\nlayer high\n",
                                      &error);
  ASSERT_TRUE(error.empty());
  const std::vector<ScannedFile> files = {
      file_of("src/low/a.hpp",
              "#pragma once\n"
              "#include \"high/b.hpp\"\n"    // upward
              "#include \"other/c.hpp\"\n"), // cross-layer
      file_of("src/high/b.hpp", "#pragma once\n#include \"low/a.hpp\"\n"),
      file_of("src/other/c.hpp", "#pragma once\n"),
  };
  const std::vector<Finding> got =
      check_layering(build_include_graph(files), spec);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].file, "src/low/a.hpp");
  EXPECT_EQ(got[0].line, 2);
  EXPECT_EQ(got[0].rule, "LAY-001");
  EXPECT_NE(got[0].message.find("upward include"), std::string::npos);
  EXPECT_EQ(got[1].line, 3);
  EXPECT_NE(got[1].message.find("cross-layer include"), std::string::npos);
}

TEST(LintGraph, DownwardIncludesAreClean) {
  std::string error;
  const LayerSpec spec = parse_layers("layer low\nlayer high\n", &error);
  ASSERT_TRUE(error.empty());
  const std::vector<ScannedFile> files = {
      file_of("src/high/b.hpp", "#pragma once\n#include \"low/a.hpp\"\n"),
      file_of("src/low/a.hpp", "#pragma once\n"),
  };
  EXPECT_TRUE(check_layering(build_include_graph(files), spec).empty());
}

// --- layering mini-trees (lint_tree end to end) ----------------------------

TEST(LintLayering, UpwardIncludeFailsLintTree) {
  // The acceptance criterion in miniature: sim including sched is an
  // error the whole-tree gate must report.
  const Report report = lint_tree(fixture_dir("layering/upward"));
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].file, "src/sim/rng.hpp");
  EXPECT_EQ(report.findings[0].line, 3);
  EXPECT_EQ(report.findings[0].rule, "LAY-001");
}

TEST(LintLayering, ReasonedSuppressionSilencesLayeringFinding) {
  const Report report = lint_tree(fixture_dir("layering/upward_allowed"));
  EXPECT_TRUE(report.findings.empty());
}

TEST(LintLayering, SameRankIncludeIsCrossLayer) {
  const Report report = lint_tree(fixture_dir("layering/cross"));
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].file, "src/net/link.hpp");
  EXPECT_EQ(report.findings[0].rule, "LAY-001");
  EXPECT_NE(report.findings[0].message.find("cross-layer"),
            std::string::npos);
}

TEST(LintLayering, IncludeCycleFailsLintTree) {
  const Report report = lint_tree(fixture_dir("layering/cycle"));
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].file, "src/core/a.hpp");
  EXPECT_EQ(report.findings[0].line, 3);
  EXPECT_EQ(report.findings[0].rule, "LAY-002");
}

TEST(LintLayering, ReasonedSuppressionSilencesCycleFinding) {
  const Report report = lint_tree(fixture_dir("layering/cycle_allowed"));
  EXPECT_TRUE(report.findings.empty());
}

TEST(LintLayering, NonSelfContainedHeaderIsFlagged) {
  const Report report = lint_tree(fixture_dir("layering/selfcontained"));
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].file, "src/sim/missing.hpp");
  EXPECT_EQ(report.findings[0].line, 5);
  EXPECT_EQ(report.findings[0].rule, "LAY-003");
  // good.hpp (direct include), transitive.hpp (via project include), and
  // suppressed.hpp (reasoned allow) contribute no findings.
}

// --- DOT export ------------------------------------------------------------

TEST(LintDot, ModuleDotListsRanksAndEdges) {
  std::string error;
  const LayerSpec spec = parse_layers("layer low\nlayer high\n", &error);
  ASSERT_TRUE(error.empty());
  const std::vector<ScannedFile> files = {
      file_of("src/high/b.hpp", "#pragma once\n#include \"low/a.hpp\"\n"),
      file_of("src/low/a.hpp", "#pragma once\n"),
  };
  const std::string dot = module_dot(build_include_graph(files), spec);
  EXPECT_NE(dot.find("digraph hpcs_layers"), std::string::npos);
  EXPECT_NE(dot.find("{ rank = same; low; }"), std::string::npos);
  EXPECT_NE(dot.find("high -> low;"), std::string::npos);
}

TEST(LintDot, RealTreeDotMatchesGoldenSnapshot) {
  const std::string got =
      hpcs::lint::layering_dot(HPCS_LINT_SOURCE_ROOT);
  const std::string golden_path =
      std::string(HPCS_GOLDEN_DIR) + "/layers.dot";
  if (std::getenv("HPCS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    out << got;
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    return;
  }
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing " << golden_path
      << " — regenerate with: cmake --build build --target update-golden";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "module layering changed; if intentional, refresh the snapshot "
         "and docs/architecture.md (cmake --build build --target "
         "update-golden)";
}

TEST(LintAllowlist, EveryEntryNamesAnExistingFileAndAKnownRule) {
  // A deleted or renamed file must take its exemption with it.
  for (const AllowEntry& entry : hpcs::lint::builtin_allowlist()) {
    const std::string path =
        std::string(HPCS_LINT_SOURCE_ROOT) + "/" + entry.path;
    EXPECT_TRUE(std::ifstream(path).good())
        << entry.rule << " exemption names missing file " << entry.path;
    EXPECT_TRUE(hpcs::lint::known_rule(entry.rule))
        << entry.path << " is exempt from unknown rule " << entry.rule;
  }
}

TEST(LintTree, RealSourceTreeLintsClean) {
  const Report report = hpcs::lint::lint_tree(HPCS_LINT_SOURCE_ROOT);
  for (const Finding& finding : report.findings)
    ADD_FAILURE() << finding.file << ":" << finding.line << ": ["
                  << finding.rule << "] " << finding.message;
  EXPECT_GT(report.files_scanned, 150u);
}

TEST(LintTree, ScanIsDeterministic) {
  const Report a = hpcs::lint::lint_tree(HPCS_LINT_SOURCE_ROOT);
  const Report b = hpcs::lint::lint_tree(HPCS_LINT_SOURCE_ROOT);
  EXPECT_EQ(a.files_scanned, b.files_scanned);
  ASSERT_EQ(a.findings.size(), b.findings.size());
}

}  // namespace
