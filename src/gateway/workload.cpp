#include "gateway/workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace hpcs::gateway {

void WorkloadSpec::validate() const {
  if (base_rate_hz <= 0)
    throw std::invalid_argument("WorkloadSpec: base rate must be > 0");
  if (load <= 0)
    throw std::invalid_argument("WorkloadSpec: load must be > 0");
  if (diurnal.empty())
    throw std::invalid_argument("WorkloadSpec: diurnal profile is empty");
  for (const double m : diurnal)
    if (m <= 0)
      throw std::invalid_argument(
          "WorkloadSpec: diurnal multipliers must be > 0");
  if (tenants < 1)
    throw std::invalid_argument("WorkloadSpec: tenants must be >= 1");
  if (catalog_images < 1)
    throw std::invalid_argument("WorkloadSpec: catalog must be >= 1 image");
  if (zipf_s < 0)
    throw std::invalid_argument("WorkloadSpec: zipf skew must be >= 0");
  if (image_bytes_min == 0 || image_bytes_max < image_bytes_min)
    throw std::invalid_argument("WorkloadSpec: bad image size bounds");
  if (horizon_s <= 0)
    throw std::invalid_argument("WorkloadSpec: horizon must be > 0");
}

int churn_catalog_images(const WorkloadSpec& spec, std::uint64_t cache_bytes,
                         double churn) {
  const double mean_bytes =
      std::exp(0.5 * (std::log(static_cast<double>(spec.image_bytes_min)) +
                      std::log(static_cast<double>(spec.image_bytes_max))));
  const double images = churn * static_cast<double>(cache_bytes) / mean_bytes;
  return std::max(2, static_cast<int>(std::llround(images)));
}

ImageCatalog::ImageCatalog(const WorkloadSpec& spec, const sim::Rng& root) {
  spec.validate();
  sim::Rng stream = root.child("catalog");
  digests_.reserve(static_cast<std::size_t>(spec.catalog_images));
  bytes_.reserve(static_cast<std::size_t>(spec.catalog_images));
  const double lo = std::log(static_cast<double>(spec.image_bytes_min));
  const double hi = std::log(static_cast<double>(spec.image_bytes_max));
  for (int i = 0; i < spec.catalog_images; ++i) {
    char buf[80];
    std::snprintf(buf, sizeof buf, "sha256:%016llx%016llx",
                  static_cast<unsigned long long>(stream()),
                  static_cast<unsigned long long>(stream()));
    digests_.emplace_back(buf);
    bytes_.push_back(static_cast<std::uint64_t>(
        std::llround(std::exp(stream.uniform(lo, hi)))));
  }
}

std::uint64_t ImageCatalog::total_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t b : bytes_) total += b;
  return total;
}

ArrivalProcess::ArrivalProcess(const WorkloadSpec& spec, const sim::Rng& root)
    : spec_(spec),
      times_(root.child("arrivals")),
      tenants_(root.child("tenants")),
      images_(root.child("images")) {
  spec_.validate();
  // Zipf CDF over catalog ranks: weight(i) = (i+1)^-s, normalized.
  zipf_cdf_.reserve(static_cast<std::size_t>(spec_.catalog_images));
  double total = 0.0;
  for (int i = 0; i < spec_.catalog_images; ++i) {
    total += std::pow(static_cast<double>(i + 1), -spec_.zipf_s);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
  const double peak_mult =
      *std::max_element(spec_.diurnal.begin(), spec_.diurnal.end());
  peak_rate_ = spec_.base_rate_hz * spec_.load * peak_mult;
}

double ArrivalProcess::rate_at(double t) const noexcept {
  const auto slices = static_cast<double>(spec_.diurnal.size());
  auto slice = static_cast<std::size_t>(t / spec_.horizon_s * slices);
  slice = std::min(slice, spec_.diurnal.size() - 1);
  return spec_.base_rate_hz * spec_.load * spec_.diurnal[slice];
}

std::optional<PullRequest> ArrivalProcess::next() {
  // Thinning: candidate arrivals at the diurnal peak rate, accepted with
  // probability rate(t)/peak — the standard non-homogeneous Poisson
  // construction, and deterministic on the "arrivals" stream.
  while (true) {
    now_ += times_.exponential(peak_rate_);
    if (now_ >= spec_.horizon_s) return std::nullopt;
    if (times_.uniform() * peak_rate_ > rate_at(now_)) continue;
    PullRequest req;
    req.time = now_;
    req.tenant = static_cast<int>(
        tenants_.uniform_int(0, static_cast<std::int64_t>(spec_.tenants) - 1));
    const double u = images_.uniform();
    const auto it =
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
    req.image = static_cast<int>(it - zipf_cdf_.begin());
    if (req.image >= spec_.catalog_images) req.image = spec_.catalog_images - 1;
    return req;
  }
}

}  // namespace hpcs::gateway
