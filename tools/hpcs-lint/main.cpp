// hpcs-lint CLI: scans the tree (or explicit paths) and exits nonzero on
// any finding, so the `lint_tree` ctest entry fails loudly.
//
//   hpcs-lint [--root DIR] [--list-rules] [--dot FILE] [paths...]
//
// With no paths, lints src/, bench/, examples/, tools/, and tests/ under
// the root (tools/hpcs-lint/fixtures/ excluded), including the
// include-graph pass (layer DAG, cycles, header self-containment).
// --dot writes the module-level layering diagram (Graphviz) that
// docs/architecture.md embeds.
// Output is deterministic: findings sorted by (file, line, rule).

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "graph.hpp"
#include "lint.hpp"

namespace {

void print_rules() {
  std::cout << "rules:\n";
  for (const hpcs::lint::RuleInfo& rule : hpcs::lint::rule_catalog())
    std::cout << "  " << rule.id << "  " << rule.summary << "\n";
  std::cout << "\nbuilt-in allowlist:\n";
  for (const hpcs::lint::AllowEntry& entry :
       hpcs::lint::builtin_allowlist())
    std::cout << "  " << entry.path << "  " << entry.rule << "  ("
              << entry.reason << ")\n";
  std::cout << "\nsuppression syntax:\n"
            << "  // hpcs-lint: allow(RULE-ID) <reason — required>\n"
            << "  (on the offending line, or alone on the line above)\n";
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--root DIR] [--list-rules] [--dot FILE] [paths...]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string dot_path;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list-rules") == 0) {
      print_rules();
      return 0;
    }
    if (std::strcmp(arg, "--root") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      root = argv[++i];
    } else if (std::strcmp(arg, "--dot") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      dot_path = argv[++i];
    } else if (std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else if (arg[0] == '-') {
      return usage(argv[0]);
    } else {
      paths.emplace_back(arg);
    }
  }

  if (!dot_path.empty()) {
    const std::string dot = hpcs::lint::layering_dot(root);
    if (dot_path == "-") {
      std::cout << dot;
    } else {
      std::ofstream out(dot_path, std::ios::binary);
      out << dot;
      if (!out) {
        std::cerr << "hpcs-lint: cannot write " << dot_path << "\n";
        return 2;
      }
    }
  }

  const hpcs::lint::Report report =
      paths.empty() ? hpcs::lint::lint_tree(root)
                    : hpcs::lint::lint_paths(root, paths);
  // `--dot -` streams the diagram on stdout; keep it pipeable by routing
  // the findings and the summary line to stderr in that mode.
  std::ostream& out = dot_path == "-" ? std::cerr : std::cout;
  for (const hpcs::lint::Finding& finding : report.findings)
    out << finding.file << ":" << finding.line << ": [" << finding.rule
        << "] " << finding.message << "\n";
  out << "hpcs-lint: " << report.files_scanned << " files scanned, "
      << report.findings.size() << " finding"
      << (report.findings.size() == 1 ? "" : "s") << "\n";
  return report.findings.empty() ? 0 : 1;
}
