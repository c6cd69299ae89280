// Fixture: no HYG-006 finding — seeds come from the grid's cell_seed or
// a named child stream; hash64 and splitmix64 appear only in comments,
// strings and longer names.
#include <cstdint>
#include <string>

#include "core/grid.hpp"
#include "sim/rng.hpp"

namespace hs = hpcs::sim;

std::uint64_t seed_for(std::uint64_t base, const std::string& key) {
  hs::Rng stream = hs::Rng(base).child("hash64/" + key);
  const std::uint64_t splitmix64_rounds = stream() & 7u;
  return hpcs::study::cell_seed(base, key) ^ splitmix64_rounds;
}
