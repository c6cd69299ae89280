#pragma once

/// \file rng.hpp
/// \brief Deterministic pseudo-random number generation for the simulator.
///
/// The whole study must be reproducible from a single seed: every simulated
/// experiment derives child streams from a root seed via splitmix64 so that
/// adding a new consumer never perturbs the draws seen by existing ones.
/// The core generator is xoshiro256** (public domain, Blackman & Vigna),
/// chosen over std::mt19937 for speed and for a well-defined cross-platform
/// bit stream.
///
/// Cost: the hot path (construction, operator(), uniform() and the indexed
/// child()) is defined inline below, so a per-rank child stream that draws
/// once costs five splitmix64 rounds and one xoshiro step of integer
/// arithmetic, with no call.  The distribution helpers, which call libm,
/// stay out of line.

#include <array>
#include <bit>
#include <cstdint>
#include <string_view>

namespace hpcs::sim {

/// splitmix64 step; used for seeding and for hashing stream names.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Stable 64-bit hash of a string (FNV-1a), used to derive named sub-streams.
std::uint64_t hash64(std::string_view s) noexcept;

/// xoshiro256** generator with distribution helpers.
///
/// Satisfies UniformRandomBitGenerator, so it can also feed <random>
/// distributions, but the built-in helpers below are preferred because their
/// output is identical across standard library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state from \p seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept
      : seed_(seed) {
    std::uint64_t s = seed;
    for (auto& w : state_) w = splitmix64(s);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  /// Next raw 64-bit value.
  result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    // 53 high bits -> double in [0,1) with full mantissa resolution.
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] (inclusive), lo <= hi required.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double normal() noexcept;

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Exponential with rate lambda (> 0).
  double exponential(double lambda) noexcept;

  /// Log-normal such that the *median* of the distribution is \p median and
  /// sigma is the shape parameter.  Used for OS-noise style multiplicative
  /// jitter around 1.0.
  double lognormal_median(double median, double sigma) noexcept;

  /// Derives an independent child generator for the named stream.
  /// Children of the same parent with different names never collide.
  Rng child(std::string_view stream_name) const noexcept;

  /// Derives an independent child generator for an indexed stream
  /// (e.g. one per MPI rank).
  Rng child(std::uint64_t index) const noexcept {
    std::uint64_t s = seed_ ^ (0xd1342543de82ef95ull * (index + 1));
    splitmix64(s);
    return Rng(s);
  }

 private:
  std::array<std::uint64_t, 4> state_;
  std::uint64_t seed_;  // retained so children derive from the seed, not state
};

}  // namespace hpcs::sim
