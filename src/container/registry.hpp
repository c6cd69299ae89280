#pragma once

/// \file registry.hpp
/// \brief Image registry / staging-area model with layer-level caching.
///
/// The registry serves image content to compute nodes during deployment.
/// It has a finite number of concurrent transfer streams and an aggregate
/// egress bandwidth (ClusterSpec carries the site values).  Nodes cache
/// layers by digest: a re-deploy of an updated image only transfers the
/// layers that changed — an advantage of Docker's layered format that the
/// deployment bench quantifies against flat images.

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "container/image.hpp"
#include "obs/collector.hpp"

namespace hpcs::container {

class Registry {
 public:
  /// \param egress_bw      aggregate registry bandwidth [bytes/s]
  /// \param max_streams    concurrent transfers served
  Registry(double egress_bw, int max_streams);

  /// Publishes an image; re-pushing the same reference replaces it.
  void push(const Image& image);

  bool has(const std::string& reference) const;
  const Image& get(const std::string& reference) const;
  std::size_t image_count() const noexcept { return images_.size(); }

  /// Bytes a node with cached layer digests \p node_cache must transfer to
  /// materialize \p image (compressed wire bytes; cached layers are free).
  std::uint64_t bytes_to_transfer(
      const Image& image, const std::set<std::string>& node_cache) const;

  /// Time for \p concurrent_pullers nodes, each needing \p bytes_per_node,
  /// to pull simultaneously given stream and bandwidth limits, assuming the
  /// per-node downlink is \p node_downlink_bw.  (Closed-form equivalent of
  /// the DES pipeline; the deployment module cross-checks the two.)
  /// When \p collector is enabled, each wave is recorded as a
  /// "registry"-category span on \p track.
  double concurrent_pull_time(std::uint64_t bytes_per_node,
                              int concurrent_pullers,
                              double node_downlink_bw,
                              obs::Collector* collector = nullptr,
                              int track = 0) const;

  double egress_bandwidth() const noexcept { return egress_bw_; }
  int max_streams() const noexcept { return max_streams_; }

 private:
  double egress_bw_;
  int max_streams_;
  std::map<std::string, Image> images_;
};

}  // namespace hpcs::container
