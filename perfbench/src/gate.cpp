#include "gate.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::string digest(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

Pins Pins::load(const std::string& path) {
  Pins pins;
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line) || line.rfind("# seed ", 0) != 0)
    return pins;
  pins.seed = std::stoull(line.substr(7));
  while (std::getline(in, line)) {
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    pins.values.emplace(line.substr(0, tab), line.substr(tab + 1));
  }
  return pins;
}

void Pins::save(const std::string& path) const {
  std::ofstream out(path);
  out << "# seed " << seed << "\n";
  for (const auto& [key, value] : values) out << key << "\t" << value << "\n";
  if (!out) throw std::runtime_error("cannot write pins to '" + path + "'");
}

Gate::Gate(Pins pins, std::uint64_t seed, Match match)
    : match_(match ? std::move(match)
                   : [](const std::string& a, const std::string& b) {
                       return a == b;
                     }) {
  if (!pins.values.empty() && pins.seed == seed) {
    pins_ = std::move(pins.values);
    pinned_ = true;
  }
}

void Gate::check(const std::string& key, const std::string& observed,
                 const std::string& invariant_error) {
  ++attempted_;
  if (!invariant_error.empty()) {
    record_failure(key + ": " + invariant_error);
    return;
  }
  const auto [first, inserted] = first_.emplace(key, observed);
  if (!inserted && !match_(first->second, observed)) {
    record_failure(key + ": output " + observed +
                   " differs from earlier pass " + first->second);
    return;
  }
  if (!pinned_) return;
  const auto pin = pins_.find(key);
  if (pin == pins_.end())
    record_failure(key + ": no pinned reference");
  else if (!match_(pin->second, observed))
    record_failure(key + ": output " + observed + " != pinned " +
                   pin->second);
}

void Gate::check_invariant(const std::string& key,
                           const std::string& invariant_error) {
  ++attempted_;
  if (!invariant_error.empty()) record_failure(key + ": " + invariant_error);
}

void Gate::fail(const std::string& key, const std::string& error) {
  ++attempted_;
  record_failure(key + ": threw: " + error);
}

void Gate::record_failure(std::string message) {
  ++failed_;
  if (errors_.size() < 8) errors_.push_back(std::move(message));
}

}  // namespace perfbench
