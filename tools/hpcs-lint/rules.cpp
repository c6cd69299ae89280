#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "flow.hpp"
#include "graph.hpp"
#include "lint.hpp"

namespace hpcs::lint {

namespace fs = std::filesystem;

namespace {

bool ident_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0)
    --e;
  return s.substr(b, e - b);
}

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

// --- file classification ---------------------------------------------------

enum class FileClass { Library, Bench, Example, Test, Tool, Other };

FileClass classify(const std::string& path) {
  auto starts = [&](const char* prefix) { return path.rfind(prefix, 0) == 0; };
  if (starts("src/")) return FileClass::Library;
  if (starts("bench/")) return FileClass::Bench;
  if (starts("examples/")) return FileClass::Example;
  if (starts("tests/")) return FileClass::Test;
  if (starts("tools/")) return FileClass::Tool;
  return FileClass::Other;
}

bool is_header_path(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos) return false;
  const std::string ext = path.substr(dot + 1);
  return ext == "hpp" || ext == "h" || ext == "hh" || ext == "hxx";
}

/// Serialization scope for DET-003: files that produce the byte-stable
/// artifacts (CSV/JSON/trace/report/table writers), identified by name or
/// by defining/calling the writer entry points.
bool looks_serialization(const ScannedFile& f) {
  const std::size_t slash = f.path.rfind('/');
  std::string base =
      slash == std::string::npos ? f.path : f.path.substr(slash + 1);
  std::transform(base.begin(), base.end(), base.begin(), [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  });
  for (const char* token :
       {"csv", "json", "trace", "export", "report", "table", "writer"})
    if (contains(base, token)) return true;
  for (const ScannedLine& line : f.lines)
    for (const char* marker :
         {"write_csv", "write_json", "write_chrome_trace", "save_csv",
          "save_json", "CsvWriter", "ChromeTraceWriter", "to_json"})
      if (contains(line.code, marker)) return true;
  return false;
}

// --- identifier matching ---------------------------------------------------

/// One-token context to the left of an identifier: "std" / "chrono" /
/// "thread" for `X::ident`, "::" for global `::ident`, "." for member
/// access (`a.ident`, `p->ident`), "" for an unqualified mention.
std::string qualifier(const std::string& code, std::size_t begin) {
  std::size_t j = begin;
  while (j > 0 && code[j - 1] == ' ') --j;
  if (j >= 2 && code[j - 1] == ':' && code[j - 2] == ':') {
    j -= 2;
    while (j > 0 && code[j - 1] == ' ') --j;
    const std::size_t e = j;
    while (j > 0 && ident_char(code[j - 1])) --j;
    if (e == j) return "::";
    return code.substr(j, e - j);
  }
  if (j >= 1 && code[j - 1] == '.') return ".";
  if (j >= 2 && code[j - 1] == '>' && code[j - 2] == '-') return ".";
  return "";
}

template <typename Fn>
void for_each_ident(const std::string& code, const Fn& fn) {
  std::size_t i = 0;
  const std::size_t n = code.size();
  while (i < n) {
    const char c = code[i];
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      while (i < n && ident_char(code[i])) ++i;  // skip numeric literals
    } else if (ident_char(c)) {
      const std::size_t b = i;
      while (i < n && ident_char(code[i])) ++i;
      fn(code.substr(b, i - b), b);
    } else {
      ++i;
    }
  }
}

template <std::size_t N>
bool in_list(const std::string& name, const char* const (&list)[N]) {
  for (const char* item : list)
    if (name == item) return true;
  return false;
}

// DET-001: wall-clock sources.  `time`/`clock` are common method names in
// this codebase, so the bare words are only flagged when std-/globally
// qualified; the chrono clock types and POSIX entry points are
// distinctive enough to flag under any qualification.
const char* const kDet001Any[] = {
    "system_clock",  "steady_clock", "high_resolution_clock",
    "gettimeofday",  "clock_gettime", "timespec_get",
    "localtime",     "gmtime",        "mktime",
    "strftime"};
const char* const kDet001Qualified[] = {"time", "clock"};

// DET-002: RNG engines and C PRNG entry points.
const char* const kDet002Any[] = {
    "random_device", "mt19937",        "mt19937_64",
    "minstd_rand",   "minstd_rand0",   "default_random_engine",
    "ranlux24",      "ranlux48",       "ranlux24_base",
    "ranlux48_base", "knuth_b"};
const char* const kDet002Free[] = {"rand",    "srand",   "rand_r",
                                   "drand48", "lrand48", "mrand48"};

// DET-003: iteration-order-unstable containers.
const char* const kDet003[] = {"unordered_map", "unordered_set",
                               "unordered_multimap", "unordered_multiset"};

// HYG-003: direct console I/O.
const char* const kHyg003Stream[] = {"cout", "cerr", "clog"};
const char* const kHyg003Free[] = {"printf", "fprintf", "puts", "putchar",
                                   "vprintf"};

bool std_or_global(const std::string& qual) {
  return qual.empty() || qual == "std" || qual == "::";
}

/// The identifier ending at \p end, spaces skipped ("" if none).
std::string word_before(const std::string& code, std::size_t end) {
  while (end > 0 && code[end - 1] == ' ') --end;
  std::size_t b = end;
  while (b > 0 && ident_char(code[b - 1])) --b;
  return code.substr(b, end - b);
}

/// HYG-004: does the `TaskPool` mention spanning [begin, end) construct
/// one?  A declarator (`TaskPool pool(4)`), a temporary (`TaskPool(4)`,
/// `TaskPool{4}`), `new TaskPool` and `make_unique/make_shared<TaskPool>`
/// do; `TaskPool::Stats`, `TaskPool&`, `TaskPool*` and a forward
/// declaration do not.
bool constructs_task_pool(const std::string& code, std::size_t begin,
                          std::size_t end) {
  std::size_t b = begin;  // step left over `ns::` qualifiers
  for (;;) {
    while (b > 0 && code[b - 1] == ' ') --b;
    if (b < 2 || code[b - 1] != ':' || code[b - 2] != ':') break;
    b -= 2;
    while (b > 0 && code[b - 1] == ' ') --b;
    while (b > 0 && ident_char(code[b - 1])) --b;
  }
  if (b > 0 && code[b - 1] == '<') {
    const std::string callee = word_before(code, b - 1);
    return callee == "make_unique" || callee == "make_shared";
  }
  if (word_before(code, b) == "new") return true;
  std::size_t a = end;
  while (a < code.size() && code[a] == ' ') ++a;
  return a < code.size() &&
         (ident_char(code[a]) || code[a] == '(' || code[a] == '{');
}

// --- suppressions ----------------------------------------------------------

struct SuppRef {
  std::string rule;
  std::string reason;
};

std::vector<SuppRef> parse_suppressions(const std::string& comment) {
  std::vector<SuppRef> out;
  static const std::string kTag = "hpcs-lint:";
  std::size_t pos = comment.find(kTag);
  while (pos != std::string::npos) {
    std::size_t i = pos + kTag.size();
    while (i < comment.size() && comment[i] == ' ') ++i;
    const std::size_t next = comment.find(kTag, i);
    if (comment.compare(i, 6, "allow(") == 0) {
      i += 6;
      const std::size_t close = comment.find(')', i);
      if (close != std::string::npos && (next == std::string::npos ||
                                         close < next)) {
        SuppRef ref;
        ref.rule = trim(comment.substr(i, close - i));
        const std::size_t reason_end =
            next == std::string::npos ? comment.size() : next;
        ref.reason = trim(comment.substr(close + 1, reason_end - close - 1));
        out.push_back(std::move(ref));
      }
    }
    pos = next;
  }
  return out;
}

}  // namespace

bool finding_before(const Finding& a, const Finding& b) noexcept {
  if (a.file != b.file) return a.file < b.file;
  if (a.line != b.line) return a.line < b.line;
  return a.rule < b.rule;
}

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {"DET-001",
       "no wall-clock reads (chrono clocks, time(), POSIX clocks) outside "
       "the host-time allowlist"},
      {"DET-002",
       "no ad-hoc RNG (rand(), random_device, mt19937, ...) outside the "
       "src/sim RNG facilities"},
      {"DET-003",
       "no unordered_map/unordered_set in serialization, writer, or "
       "export code (sort keys first)"},
      {"DET-004",
       "no thread identity (thread::id, get_id, hardware_concurrency) "
       "that could flow into serialized output"},
      {"DET-005",
       "no iteration over unordered containers whose loop body reaches "
       "an emitter (<<, save_*, write_*, json_escape) without a sort"},
      {"DET-006",
       "in fault/gateway/sched: RNG must be the bound root stream or a "
       "named .child(...); no direct seeding or legacy .draw() calls"},
      {"CON-001",
       "no naked .lock()/.unlock() on a mutex; use lock_guard / "
       "scoped_lock / unique_lock"},
      {"CON-002",
       "no std::thread that can leave its scope without join(), and no "
       "detach()"},
      {"LAY-001",
       "src/ modules only include strictly lower layers of the declared "
       "DAG (tools/hpcs-lint/layers.txt)"},
      {"LAY-002", "no include cycles"},
      {"LAY-003",
       "headers are self-contained: every std:: component's header is "
       "reachable from the header's own include closure (ground truth: "
       "the generated header_selfcontained compile probe)"},
      {"HYG-001", "no 'using namespace' in headers"},
      {"HYG-002", "every header starts with '#pragma once'"},
      {"HYG-003",
       "no std::cout/std::cerr/printf in library code (bench, examples, "
       "tests, tools exempt)"},
      {"HYG-004",
       "no study::TaskPool construction outside the grid runner "
       "(src/core/grid.cpp) and the pool itself; grids fan out through "
       "run_cells (tests exempt)"},
      {"LNT-901", "inline suppressions must carry a written reason"},
      {"LNT-902", "inline suppressions must name a known rule"},
  };
  return kCatalog;
}

bool known_rule(const std::string& id) {
  for (const RuleInfo& info : rule_catalog())
    if (id == info.id) return true;
  return false;
}

const std::vector<AllowEntry>& builtin_allowlist() {
  static const std::vector<AllowEntry> kList = {
      {"src/obs/collector.hpp", "DET-001",
       "host-time split: SpanScope measures host wall time into "
       "host_stats(), which is diagnostic-only and never serialized"},
      {"src/obs/collector.cpp", "DET-001",
       "host-time split (see collector.hpp)"},
      {"src/core/thread_pool.hpp", "DET-004",
       "worker identity is the pool's own scheduling diagnostic; callers "
       "keep it out of serialized artifacts"},
      {"src/core/thread_pool.cpp", "DET-001",
       "the pool may use timed waits; wall time never reaches outputs"},
      {"src/core/thread_pool.cpp", "DET-004",
       "worker identity is the pool's own scheduling diagnostic"},
      {"src/core/thread_pool.hpp", "HYG-004",
       "the pool's own definition"},
      {"src/core/thread_pool.cpp", "HYG-004",
       "the pool's own definition"},
      {"src/core/grid.cpp", "HYG-004",
       "run_cells: the one grid runner, which owns the fan-out behind "
       "every study's keyed-grid contract"},
      {"src/sim/rng.hpp", "DET-002",
       "the deterministic RNG facility every other module must use"},
      {"src/sim/rng.cpp", "DET-002",
       "the deterministic RNG facility every other module must use"},
      {"bench/grid_cli.hpp", "DET-001",
       "the grid benches' elapsed-time line, printed after the grid "
       "completes; wall clock never reaches the CSV/trace/metrics "
       "artifacts"},
  };
  return kList;
}

namespace {

bool allowlisted(const std::string& path, const std::string& rule) {
  for (const AllowEntry& entry : builtin_allowlist())
    if (path == entry.path && rule == entry.rule) return true;
  return false;
}

/// Collects inline suppressions: line -> suppressed rules.  A suppression
/// on a comment-only line applies to the next line.  Malformed
/// suppressions (no reason, unknown rule) become findings in
/// \p complaints when non-null — they never suppress anything.
std::map<int, std::set<std::string>> suppression_map(
    const ScannedFile& f, std::vector<Finding>* complaints) {
  std::map<int, std::set<std::string>> allow;
  for (std::size_t li = 0; li < f.lines.size(); ++li) {
    const int ln = static_cast<int>(li) + 1;
    for (SuppRef& ref : parse_suppressions(f.lines[li].comment)) {
      if (!known_rule(ref.rule)) {
        if (complaints != nullptr)
          complaints->push_back(
              {f.path, ln, "LNT-902",
               "suppression names unknown rule '" + ref.rule + "'"});
        continue;
      }
      if (ref.reason.empty()) {
        // An unexplained suppression does not suppress: the finding it
        // targeted resurfaces alongside this one.
        if (complaints != nullptr)
          complaints->push_back({f.path, ln, "LNT-901",
                                 "suppression for " + ref.rule +
                                     " is missing a reason"});
        continue;
      }
      const int target = trim(f.lines[li].code).empty() ? ln + 1 : ln;
      allow[target].insert(std::move(ref.rule));
    }
  }
  return allow;
}

/// Modules whose every random decision must flow through named streams
/// (DET-006): the fault injectors, the gateway service, the scheduler.
bool named_stream_module(const std::string& path) {
  const std::string mod = module_of(path);
  return mod == "fault" || mod == "gateway" || mod == "sched";
}

}  // namespace

std::vector<Finding> lint_file(const ScannedFile& f) {
  std::vector<Finding> out;
  const FileClass cls = classify(f.path);
  const bool header = is_header_path(f.path);
  // Determinism rules guard everything that can reach a serialized
  // artifact: the libraries, the figure benches, and the example CLIs.
  // Tests exercise nondeterminism on purpose (timeouts, host clocks) and
  // tools never touch simulation outputs.
  const bool det_scope = cls == FileClass::Library ||
                         cls == FileClass::Bench ||
                         cls == FileClass::Example || cls == FileClass::Other;
  const bool serial = det_scope && looks_serialization(f);

  const std::map<int, std::set<std::string>> allow =
      suppression_map(f, &out);

  auto add = [&](int line, const char* rule, std::string message) {
    const auto it = allow.find(line);
    if (it != allow.end() && it->second.count(rule) != 0) return;
    if (allowlisted(f.path, rule)) return;
    out.push_back({f.path, line, rule, std::move(message)});
  };

  bool has_pragma_once = false;
  for (std::size_t li = 0; li < f.lines.size(); ++li) {
    const std::string& code = f.lines[li].code;
    const int ln = static_cast<int>(li) + 1;
    if (header && contains(code, "#pragma") && contains(code, "once"))
      has_pragma_once = true;

    std::string prev_ident;
    for_each_ident(code, [&](const std::string& name, std::size_t pos) {
      const std::string qual = qualifier(code, pos);
      if (header && prev_ident == "using" && name == "namespace")
        add(ln, "HYG-001", "'using namespace' in a header");
      prev_ident = name;

      if (det_scope) {
        if (in_list(name, kDet001Any) ||
            (in_list(name, kDet001Qualified) &&
             (qual == "std" || qual == "::")))
          add(ln, "DET-001",
              "wall-clock access ('" + name +
                  "') outside the host-time allowlist");
        if (in_list(name, kDet002Any) ||
            (in_list(name, kDet002Free) && std_or_global(qual)))
          add(ln, "DET-002",
              "ad-hoc RNG ('" + name + "') outside src/sim RNG facilities");
        if (serial && in_list(name, kDet003))
          add(ln, "DET-003",
              "unordered container '" + name +
                  "' in a serialization path (sort keys first)");
        if (name == "get_id" || name == "hardware_concurrency" ||
            (name == "id" && qual == "thread"))
          add(ln, "DET-004",
              "thread-identity value ('" + name +
                  "') may leak into serialized output");
      }
      if (cls == FileClass::Library) {
        if ((in_list(name, kHyg003Stream) && std_or_global(qual) &&
             qual != "") ||
            (in_list(name, kHyg003Free) && std_or_global(qual)))
          add(ln, "HYG-003",
              "direct console I/O ('" + name + "') in library code");
      }
      if (cls != FileClass::Test && name == "TaskPool" &&
          constructs_task_pool(code, pos, pos + name.size()))
        add(ln, "HYG-004",
            "TaskPool constructed outside src/core/grid.cpp; fan out "
            "through study::run_cells");
    });
  }
  if (header && !has_pragma_once)
    add(1, "HYG-002", "header is missing '#pragma once'");

  // Pass 2: flow-aware families (DET-005/006, CON-001/002) on the token
  // stream, routed through the same suppression machinery.
  for (Finding& finding : flow_findings(f, det_scope,
                                        named_stream_module(f.path)))
    add(finding.line, finding.rule.c_str(), std::move(finding.message));

  std::sort(out.begin(), out.end(), finding_before);
  return out;
}

std::vector<Finding> lint_text(std::string path, const std::string& content) {
  return lint_file(scan_source(std::move(path), content));
}

namespace {

bool lintable_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h" || ext == ".hh" || ext == ".hxx";
}

bool excluded(const std::string& rel) {
  // Fixture files are intentionally rule-violating inputs for test_lint.
  return rel.find("tools/hpcs-lint/fixtures/") != std::string::npos;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void collect_files(const fs::path& dir, std::vector<fs::path>& out) {
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (it->is_regular_file(ec) && lintable_extension(it->path()))
      out.push_back(it->path());
  }
}

std::vector<ScannedFile> scan_file_list(const fs::path& root,
                                        std::vector<fs::path> files) {
  std::sort(files.begin(), files.end());
  std::vector<ScannedFile> out;
  for (const fs::path& file : files) {
    std::string rel =
        file.lexically_normal().lexically_relative(root).generic_string();
    if (rel.empty() || rel.rfind("..", 0) == 0)
      rel = file.lexically_normal().generic_string();
    if (excluded(rel)) continue;
    out.push_back(scan_source(std::move(rel), read_file(file)));
  }
  return out;
}

Report lint_scanned(const std::vector<ScannedFile>& files) {
  Report report;
  report.files_scanned = files.size();
  for (const ScannedFile& file : files) {
    std::vector<Finding> findings = lint_file(file);
    report.findings.insert(report.findings.end(),
                           std::make_move_iterator(findings.begin()),
                           std::make_move_iterator(findings.end()));
  }
  std::sort(report.findings.begin(), report.findings.end(), finding_before);
  return report;
}

}  // namespace

std::vector<ScannedFile> scan_tree(const std::string& root) {
  const fs::path base = fs::path(root).lexically_normal();
  std::vector<fs::path> files;
  for (const char* sub : {"src", "bench", "examples", "tools", "tests"}) {
    const fs::path dir = base / sub;
    std::error_code ec;
    if (fs::is_directory(dir, ec)) collect_files(dir, files);
  }
  return scan_file_list(base, std::move(files));
}

Report lint_tree(const std::string& root) {
  const std::vector<ScannedFile> files = scan_tree(root);
  Report report = lint_scanned(files);

  // Pass 1 (whole-tree scans only: the graph is meaningless for a
  // partial file list): include graph + layer DAG + self-containment.
  std::string layers_error;
  const LayerSpec spec = load_layers(root, &layers_error);
  if (!layers_error.empty()) {
    report.findings.push_back(
        {"tools/hpcs-lint/layers.txt", 1, "LAY-001", layers_error});
  } else if (!spec.empty()) {
    const ProjectGraph graph = build_include_graph(files);
    std::vector<Finding> layering = check_layering(graph, spec);
    std::vector<Finding> cycles = check_include_cycles(graph);
    std::vector<Finding> contained = check_self_contained(graph, files);
    layering.insert(layering.end(),
                    std::make_move_iterator(cycles.begin()),
                    std::make_move_iterator(cycles.end()));
    layering.insert(layering.end(),
                    std::make_move_iterator(contained.begin()),
                    std::make_move_iterator(contained.end()));
    // Route graph findings through the same inline-suppression syntax
    // the per-file rules honor.
    std::map<std::string, std::map<int, std::set<std::string>>> allows;
    for (const ScannedFile& file : files)
      allows[file.path] = suppression_map(file, nullptr);
    for (Finding& finding : layering) {
      const auto file_it = allows.find(finding.file);
      if (file_it != allows.end()) {
        const auto line_it = file_it->second.find(finding.line);
        if (line_it != file_it->second.end() &&
            line_it->second.count(finding.rule) != 0)
          continue;
      }
      report.findings.push_back(std::move(finding));
    }
  }
  std::sort(report.findings.begin(), report.findings.end(), finding_before);
  return report;
}

Report lint_paths(const std::string& root,
                  const std::vector<std::string>& paths) {
  const fs::path base = fs::path(root).lexically_normal();
  std::vector<fs::path> files;
  for (const std::string& p : paths) {
    const fs::path path = fs::path(p).lexically_normal();
    std::error_code ec;
    if (fs::is_directory(path, ec))
      collect_files(path, files);
    else
      files.push_back(path);
  }
  return lint_scanned(scan_file_list(base, std::move(files)));
}

}  // namespace hpcs::lint
