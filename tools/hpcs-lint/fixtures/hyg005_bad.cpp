// Fixture: HYG-005 violations (an artifact file opened by hand).
#include <fstream>
#include <memory>
#include <string>

void save(const std::string& path) {
  std::ofstream out(path);
  out << "x\n";
  std::ofstream(path + ".gp") << "plot\n";
  auto owned = std::make_unique<std::ofstream>(path);
  std::ofstream* raw = new std::ofstream{path};
  delete raw;
}
