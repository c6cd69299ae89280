#include "container/io_model.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace hpcs::container {

void PfsModel::validate() const {
  if (aggregate_bw <= 0 || per_client_bw <= 0)
    throw std::invalid_argument("PfsModel: non-positive bandwidth");
  if (metadata_ops_per_s <= 0 || metadata_latency <= 0)
    throw std::invalid_argument("PfsModel: non-positive metadata rates");
}

double PfsModel::client_bw(int clients) const {
  if (clients < 1) throw std::invalid_argument("PfsModel: clients < 1");
  return std::min(per_client_bw,
                  aggregate_bw / static_cast<double>(clients));
}

double PfsModel::metadata_time(std::uint64_t ops, int clients) const {
  if (clients < 1) throw std::invalid_argument("PfsModel: clients < 1");
  // One client is latency-bound; many clients saturate the MDS.
  const double latency_bound =
      static_cast<double>(ops) * metadata_latency;
  const double throughput_bound =
      static_cast<double>(ops) * static_cast<double>(clients) /
      metadata_ops_per_s;
  return std::max(latency_bound, throughput_bound);
}

IoPathTraits io_path_traits(RuntimeKind kind) {
  switch (kind) {
    case RuntimeKind::BareMetal:
      return IoPathTraits{};
    case RuntimeKind::Docker:
      // OverlayFS: reads of lower-layer files are near-native from local
      // disk; the first write to an image file copies it up wholesale.
      return IoPathTraits{.image_read_efficiency = 0.95,
                          .image_metadata_local = true,
                          .overlay_copy_up_factor = 1.0,
                          .local_image_bw = 0.9e9};
    case RuntimeKind::Singularity:
      // Loop-mounted squashfs: decompression caps streaming reads, all
      // metadata is local, rootfs is read-only (no accidental copy-up).
      return IoPathTraits{.image_read_efficiency = 0.75,
                          .image_metadata_local = true,
                          .overlay_copy_up_factor = 0.0,
                          .local_image_bw = 1.6e9};
    case RuntimeKind::Shifter:
      return IoPathTraits{.image_read_efficiency = 0.75,
                          .image_metadata_local = true,
                          .overlay_copy_up_factor = 0.0,
                          .local_image_bw = 1.6e9};
  }
  throw std::invalid_argument("io_path_traits: bad kind");
}

IoSimulator::IoSimulator(PfsModel pfs, hw::ClusterSpec cluster)
    : pfs_(pfs), cluster_(std::move(cluster)) {
  pfs_.validate();
  cluster_.validate();
}

IoResult IoSimulator::startup_storm(RuntimeKind runtime, int nodes,
                                    int ranks_per_node, std::uint64_t files,
                                    std::uint64_t bytes_per_file) const {
  if (nodes < 1 || nodes > cluster_.node_count || ranks_per_node < 1)
    throw std::invalid_argument("startup_storm: bad geometry");
  const auto traits = io_path_traits(runtime);
  const std::uint64_t total_bytes = files * bytes_per_file;
  IoResult r;

  if (!traits.image_metadata_local) {
    // Bare metal: every rank's open()/stat() storm hits the MDS, and the
    // library bytes stream from the PFS data plane (page cache shared per
    // node, so data is fetched once per node).
    const int clients = nodes * ranks_per_node;
    // ~3 metadata ops per file (lookup, open, mmap) per rank.
    r.pfs_metadata_ops =
        files * std::uint64_t{3} * static_cast<std::uint64_t>(clients);
    const double t_meta = pfs_.metadata_time(files * 3ull, clients);
    const double t_data = static_cast<double>(total_bytes) /
                          pfs_.client_bw(nodes);
    r.pfs_data_bytes =
        total_bytes * static_cast<std::uint64_t>(nodes);
    r.time = t_meta + t_data;
    return r;
  }

  // Containerized: the image was already staged at deployment; the storm
  // resolves against the local loop mount / overlay.  One page-in of the
  // touched bytes per node at the local medium's rate, metadata free.
  const double t_local =
      static_cast<double>(total_bytes) /
      (traits.local_image_bw * traits.image_read_efficiency);
  // A handful of residual PFS opens (the binary itself, config files).
  const int clients = nodes * ranks_per_node;
  r.pfs_metadata_ops =
      std::uint64_t{5} * static_cast<std::uint64_t>(clients);
  r.time = t_local + pfs_.metadata_time(5, clients);
  return r;
}

IoResult IoSimulator::checkpoint_write(RuntimeKind runtime, int nodes,
                                       int ranks_per_node,
                                       std::uint64_t bytes_per_rank,
                                       bool inside_rootfs) const {
  if (nodes < 1 || nodes > cluster_.node_count || ranks_per_node < 1)
    throw std::invalid_argument("checkpoint_write: bad geometry");
  const auto traits = io_path_traits(runtime);
  IoResult r;

  if (inside_rootfs && traits.overlay_copy_up_factor > 0.0) {
    // Writing into the container filesystem: OverlayFS copy-up doubles
    // the traffic to the (slow, local) upper dir; worse, the data never
    // reaches the PFS — a correctness hazard the study flags.
    const double bytes =
        static_cast<double>(bytes_per_rank) *
        (1.0 + traits.overlay_copy_up_factor) *
        static_cast<double>(ranks_per_node);
    r.time = bytes / traits.local_image_bw;
    return r;
  }
  if (inside_rootfs && runtime != RuntimeKind::BareMetal &&
      traits.overlay_copy_up_factor == 0.0) {
    // Read-only squashfs rootfs: the write fails fast instead of landing
    // on a node-local disk — surfaced as an exception.
    throw std::runtime_error(
        "checkpoint_write: container rootfs is read-only (write refused)");
  }

  // Normal path: bind-mounted PFS target; container adds nothing.
  const double bw_node = pfs_.client_bw(nodes);
  const double node_bytes = static_cast<double>(bytes_per_rank) *
                            static_cast<double>(ranks_per_node);
  r.pfs_data_bytes = bytes_per_rank *
                     static_cast<std::uint64_t>(nodes * ranks_per_node);
  r.pfs_metadata_ops =
      static_cast<std::uint64_t>(nodes * ranks_per_node);  // one create each
  r.time = node_bytes / bw_node +
           pfs_.metadata_time(1, nodes * ranks_per_node);
  return r;
}

}  // namespace hpcs::container
