// Fixture: no HYG-005 finding — writing to a caller's stream, reading a
// file, or handing the artifact to save_outputs opens nothing by hand.
#include <fstream>
#include <iostream>
#include <string>

#include "core/cli.hpp"

namespace hs = hpcs::study;

void write_rows(std::ofstream& out, std::ostream* log) {
  out << "a,b\n";
  if (log != nullptr) *log << "wrote\n";
}

std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

bool save(const std::string& path) {
  return hs::save_outputs(
      {{path, [](std::ostream& out) { out << "a,b\n"; }}}, std::cout,
      std::cerr);
}
