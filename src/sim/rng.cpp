#include "sim/rng.hpp"

#include <cmath>
#include <numbers>

namespace hpcs::sim {

std::uint64_t hash64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;  // FNV prime
  }
  return h;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Modulo bias is negligible for span << 2^64 (all our uses).
  return lo + static_cast<std::int64_t>((*this)() % span);
}

double Rng::normal() noexcept {
  // Box-Muller; draw u1 away from 0 to keep log finite.
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::exponential(double lambda) noexcept {
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  return -std::log(u) / lambda;
}

double Rng::lognormal_median(double median, double sigma) noexcept {
  return median * std::exp(sigma * normal());
}

Rng Rng::child(std::string_view stream_name) const noexcept {
  std::uint64_t s = seed_ ^ hash64(stream_name);
  // One extra mix so that child("a").child("b") != child("b").child("a").
  splitmix64(s);
  return Rng(s);
}

}  // namespace hpcs::sim
