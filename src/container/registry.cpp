#include "container/registry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hpcs::container {

Registry::Registry(double egress_bw, int max_streams)
    : egress_bw_(egress_bw), max_streams_(max_streams) {
  if (egress_bw <= 0)
    throw std::invalid_argument("Registry: egress bandwidth must be > 0");
  if (max_streams < 1)
    throw std::invalid_argument("Registry: max_streams must be >= 1");
}

void Registry::push(const Image& image) {
  images_.insert_or_assign(image.reference(), image);
}

bool Registry::has(const std::string& reference) const {
  return images_.count(reference) != 0;
}

const Image& Registry::get(const std::string& reference) const {
  const auto it = images_.find(reference);
  if (it == images_.end())
    throw std::out_of_range("Registry: unknown image '" + reference + "'");
  return it->second;
}

std::uint64_t Registry::bytes_to_transfer(
    const Image& image, const std::set<std::string>& node_cache) const {
  const double ratio = compression_ratio(image.format());
  double total = 0.0;
  for (const auto& l : image.layers()) {
    if (node_cache.count(l.id)) continue;
    total += static_cast<double>(l.bytes) * ratio;
  }
  if (image.format() == ImageFormat::DockerLayered)
    total += 4096.0 * static_cast<double>(image.layers().size());
  return static_cast<std::uint64_t>(std::llround(total));
}

double Registry::concurrent_pull_time(std::uint64_t bytes_per_node,
                                      int concurrent_pullers,
                                      double node_downlink_bw,
                                      obs::Collector* collector,
                                      int track) const {
  if (concurrent_pullers < 1)
    throw std::invalid_argument("Registry: pullers must be >= 1");
  if (node_downlink_bw <= 0)
    throw std::invalid_argument("Registry: downlink must be > 0");
  if (bytes_per_node == 0) return 0.0;

  // Waves of at most max_streams_ concurrent transfers; within a wave the
  // registry egress is shared evenly, and each node is further capped by
  // its own downlink.
  const int waves =
      (concurrent_pullers + max_streams_ - 1) / max_streams_;
  double total = 0.0;
  int remaining = concurrent_pullers;
  for (int w = 0; w < waves; ++w) {
    const int in_wave = std::min(remaining, max_streams_);
    remaining -= in_wave;
    const double per_node_bw =
        std::min(node_downlink_bw, egress_bw_ / static_cast<double>(in_wave));
    const double wave_time =
        static_cast<double>(bytes_per_node) / per_node_bw;
    if (collector && collector->enabled()) {
      collector->span(track, "pull-wave", "registry", total, wave_time,
                      {{"wave", std::to_string(w)},
                       {"pullers", std::to_string(in_wave)}});
      collector->observe("registry/wave_s", wave_time);
    }
    total += wave_time;
  }
  return total;
}

}  // namespace hpcs::container
