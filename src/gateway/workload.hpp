#pragma once

/// \file workload.hpp
/// \brief Open-loop tenant workload: image catalog and arrival process.
///
/// The gateway is driven open-loop — arrivals do not slow down when the
/// service backs up, which is exactly what makes overload dangerous and
/// tail latency interesting.  The base process is Poisson; a diurnal
/// profile multiplies the rate across the horizon (morning ramp, midday
/// burst, evening drain), and image popularity follows a Zipf law over a
/// deterministic catalog, so a few hot digests dominate while a long
/// tail churns the cache.  Every draw comes from a named sim::Rng child
/// stream, so a workload is byte-reproducible from (spec, seed) and
/// independent of host parallelism.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace hpcs::gateway {

struct WorkloadSpec {
  double base_rate_hz = 2.0;  ///< mean arrivals/s at diurnal multiplier 1
  double load = 1.0;          ///< offered-load multiplier (grid axis)
  /// Rate multipliers applied over equal slices of the horizon.
  std::vector<double> diurnal = {0.4, 0.8, 1.5, 2.5, 1.2, 0.6};
  int tenants = 1000;       ///< distinct users issuing pulls
  int catalog_images = 64;  ///< distinct image digests
  double zipf_s = 1.1;      ///< popularity skew (larger = hotter head)
  std::uint64_t image_bytes_min = 256ull << 20;
  std::uint64_t image_bytes_max = 4ull << 30;
  double horizon_s = 3600.0;  ///< arrivals stop here; service then drains

  /// \throws std::invalid_argument for non-positive rates/counts.
  void validate() const;
};

/// Catalog size that puts ~\p churn x \p cache_bytes in play, given the
/// spec's log-uniform image sizes (geometric mean); never below 2.
int churn_catalog_images(const WorkloadSpec& spec, std::uint64_t cache_bytes,
                         double churn);

/// One tenant pull request.
struct PullRequest {
  double time = 0.0;
  int tenant = 0;
  int image = 0;
};

/// Deterministic digest + size per catalog entry, drawn once from the
/// "catalog" stream.  Sizes are log-uniform between the spec bounds, so
/// the catalog mixes small tool images with multi-GB application stacks.
class ImageCatalog {
 public:
  ImageCatalog(const WorkloadSpec& spec, const sim::Rng& root);

  int size() const noexcept { return static_cast<int>(bytes_.size()); }
  const std::string& digest(int image) const {
    return digests_.at(static_cast<std::size_t>(image));
  }
  std::uint64_t bytes(int image) const {
    return bytes_.at(static_cast<std::size_t>(image));
  }

  /// Sum of all image sizes (the churn pressure against a cache tier).
  std::uint64_t total_bytes() const noexcept;

 private:
  std::vector<std::string> digests_;
  std::vector<std::uint64_t> bytes_;
};

/// Open-loop arrival generator (Poisson thinning against the diurnal
/// peak); exhausts at the horizon.
class ArrivalProcess {
 public:
  ArrivalProcess(const WorkloadSpec& spec, const sim::Rng& root);

  /// Diurnal-adjusted arrival rate at time \p t [1/s].
  double rate_at(double t) const noexcept;

  /// Next request, or nullopt once the horizon is reached.
  std::optional<PullRequest> next();

 private:
  WorkloadSpec spec_;
  sim::Rng times_;    ///< candidate inter-arrival + thinning draws
  sim::Rng tenants_;  ///< tenant identity draws
  sim::Rng images_;   ///< Zipf image draws
  std::vector<double> zipf_cdf_;
  double peak_rate_ = 0.0;
  double now_ = 0.0;
};

}  // namespace hpcs::gateway
