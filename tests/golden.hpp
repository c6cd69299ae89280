#pragma once

// Byte-exact golden-file comparison shared by every suite that checks an
// artifact against tests/golden/.  Regenerate the references after an
// intentional model change with
//
//   cmake --build build --target update-golden
//
// (or HPCS_UPDATE_GOLDEN=1 on one test binary), then review the diff of
// tests/golden/* like any other code change.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#ifndef HPCS_GOLDEN_DIR
#error "HPCS_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace hpcs::test_support {

inline std::string golden_path(const std::string& name) {
  return std::string(HPCS_GOLDEN_DIR) + "/" + name;
}

inline bool update_golden_mode() {
  const char* env = std::getenv("HPCS_UPDATE_GOLDEN");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

/// Byte-exact comparison against tests/golden/<name>; with
/// HPCS_UPDATE_GOLDEN=1 rewrites the reference instead.
inline void expect_matches_golden(const std::string& name,
                                  const std::string& actual) {
  const std::string path = golden_path(name);
  if (update_golden_mode()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    ASSERT_TRUE(out.good()) << "short write to " << path;
    std::cout << "[updated " << path << "]\n";
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — regenerate with HPCS_UPDATE_GOLDEN=1";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();
  if (expected != actual) {
    // Pinpoint the first divergent line before failing on the whole blob.
    std::istringstream es(expected), as(actual);
    std::string el, al;
    std::size_t line = 1;
    while (std::getline(es, el) && std::getline(as, al) && el == al) ++line;
    FAIL() << name << " diverges from golden at line " << line << "\n"
           << "  golden: " << el << "\n"
           << "  actual: " << al << "\n"
           << "If the change is intentional, regenerate with "
           << "HPCS_UPDATE_GOLDEN=1 and review the diff.";
  }
}

}  // namespace hpcs::test_support
