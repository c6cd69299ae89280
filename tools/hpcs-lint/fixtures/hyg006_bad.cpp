// Fixture: HYG-006 violations (seeds hashed outside core/grid).
#include <cstdint>
#include <string>

#include "sim/rng.hpp"

namespace hs = hpcs::sim;

std::uint64_t seed_for(std::uint64_t base, const std::string& key) {
  std::uint64_t state = base ^ hs::hash64(key);
  return hs::splitmix64(state);
}

std::uint64_t remix(std::uint64_t state) {
  using hpcs::sim::splitmix64;
  return splitmix64(state) ^ 1u;
}
