#pragma once

/// \file graph.hpp
/// \brief hpcs-lint pass 1: the project include graph and layering checks.
///
/// The analyzer's first pass builds a real project model: every lintable
/// file's `#include` directives, resolved against the include roots the
/// build uses (the including file's directory for quoted includes, then
/// `src/`).  Three rule families run over that graph:
///
///   LAY-001  a src/ module includes a module that is not strictly below
///            it in the declared layer DAG (tools/hpcs-lint/layers.txt)
///   LAY-002  include cycles, at file granularity
///   LAY-003  non-self-contained headers: a src/ header names a std::
///            component whose standard header is not reachable through
///            the header's transitive include closure
///
/// LAY-003's ground truth is the generated one-TU-per-header compile
/// probe (ctest label "layering"); the lint rule catches the common
/// cases in milliseconds and inside test fixtures.
///
/// The same graph exports a module-level DOT diagram (one node per src/
/// module, ranked by layer) that docs/architecture.md embeds; tests pin
/// it as a golden snapshot.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint.hpp"

namespace hpcs::lint {

/// One parsed #include directive.
struct IncludeRef {
  int line = 1;          ///< 1-based line of the directive
  std::string target;    ///< text between the delimiters, as written
  bool angled = false;   ///< <...> (true) vs "..." (false)
  std::string resolved;  ///< project-relative path, or "" if external
};

/// The project model: every scanned file and its parsed includes.
/// Keys are '/'-separated project-relative paths; std::map keeps
/// iteration — and therefore every report and export — deterministic.
struct ProjectGraph {
  std::map<std::string, std::vector<IncludeRef>> files;
};

/// Parses the #include directives of a lexed file.  Comments are already
/// split out by the scanner, so a commented-out include never counts.
std::vector<IncludeRef> parse_includes(const ScannedFile& file);

/// Builds the include graph over \p files.  Quoted includes resolve
/// first relative to the including file's directory, then against the
/// `src/` include root, then against the project root; angle includes
/// resolve against `src/` only — anything unresolved is recorded as
/// external (a system header) and feeds the LAY-003 closure.
ProjectGraph build_include_graph(const std::vector<ScannedFile>& files);

/// The declared layer DAG from layers.txt: `layer` lines name the
/// modules of one rank, bottom to top.
struct LayerSpec {
  std::vector<std::vector<std::string>> layers;  ///< bottom .. top
  std::map<std::string, int> rank;               ///< module -> layer index
  bool empty() const { return layers.empty(); }
};

/// Parses layers.txt text ('#' comments, `layer <mod>...` lines).  On
/// malformed input returns an empty spec and sets \p error.
LayerSpec parse_layers(const std::string& text, std::string* error);

/// Loads the layer spec for a project tree: tools/hpcs-lint/layers.txt
/// under \p root, falling back to <root>/layers.txt (fixture trees).
/// Returns an empty spec when neither exists.
LayerSpec load_layers(const std::string& root, std::string* error);

/// "src/<module>/..." -> "<module>"; everything else -> "" (a consumer —
/// bench/, examples/, tests/, tools/ may include any layer).
std::string module_of(const std::string& path);

/// LAY-001 over resolved src-to-src edges, plus spec/disk drift (a
/// module on disk but absent from the spec, or declared but absent from
/// the tree).
std::vector<Finding> check_layering(const ProjectGraph& graph,
                                    const LayerSpec& spec);

/// LAY-002: include cycles.  Each distinct cycle is reported once, at
/// the include directive of its lexicographically smallest member.
std::vector<Finding> check_include_cycles(const ProjectGraph& graph);

/// LAY-003 over src/ headers (see file comment): \p files supplies the
/// lexed code for std:: symbol extraction, \p graph the include closure.
std::vector<Finding> check_self_contained(
    const ProjectGraph& graph, const std::vector<ScannedFile>& files);

/// Module-level DOT export: one node per src/ module grouped into
/// same-rank rows by \p spec, one edge per observed module dependency.
std::string module_dot(const ProjectGraph& graph, const LayerSpec& spec);

/// Convenience for the CLI and the golden test: scans the tree under
/// \p root and returns module_dot of its graph and layer spec.
std::string layering_dot(const std::string& root);

}  // namespace hpcs::lint
