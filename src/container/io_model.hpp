#pragma once

/// \file io_model.hpp
/// \brief I/O & distributed-storage model — the paper's stated future work
///        ("Our study lacks a deeper evaluation of I/O and distributed
///        storage performance using containers").
///
/// Models a parallel filesystem (GPFS/Lustre-style) with separate data and
/// metadata planes, and the per-runtime filesystem paths containers add:
///
///  * bare-metal    — PFS client, data striped across OSTs, every open()
///                    hits the metadata server.
///  * Docker        — container rootfs on OverlayFS over local disk:
///                    first write to a lower-layer file pays a copy-up of
///                    the whole file; bind-mounted volumes behave like the
///                    host path.
///  * Singularity / Shifter — rootfs is a loop-mounted compressed squashfs
///                    *image file*: reads pay decompression but all
///                    metadata is local, so the shared-library/small-file
///                    "import storm" at application startup never touches
///                    the PFS metadata server — the classic container I/O
///                    *win* this extension quantifies.
///
/// Two canonical workloads are provided: the startup library-load storm
/// and an N-rank checkpoint write (a restart read of bind-mounted PFS
/// data costs the same as the write).

#include <cstdint>

#include "container/runtime.hpp"
#include "hw/cluster.hpp"

namespace hpcs::container {

/// Parallel filesystem (site-wide, shared by all compute nodes).
struct PfsModel {
  double aggregate_bw = 50e9;     ///< striped data bandwidth [bytes/s]
  double per_client_bw = 2.5e9;   ///< single client ceiling [bytes/s]
  double metadata_ops_per_s = 40e3;  ///< MDS open/stat rate (site-shared)
  double metadata_latency = 0.5e-3;  ///< per-op latency seen by one client

  void validate() const;

  /// Effective per-client data bandwidth with \p clients active.
  double client_bw(int clients) const;

  /// Time for \p clients to each perform \p ops metadata operations
  /// concurrently (MDS-throughput bound at scale).
  double metadata_time(std::uint64_t ops, int clients) const;
};

/// How a runtime's rootfs mediates file access.
struct IoPathTraits {
  /// Multiplier on data-read bandwidth for files inside the image/rootfs
  /// (squashfs decompression or overlay indirection), <= 1.
  double image_read_efficiency = 1.0;
  /// Whether image-file metadata (open/stat of shared libraries etc.) is
  /// served locally (loop-mounted image) instead of by the PFS MDS.
  bool image_metadata_local = false;
  /// Copy-up bytes factor for writes into the container filesystem
  /// (OverlayFS): bytes actually moved = factor * file size; 0 = none.
  double overlay_copy_up_factor = 0.0;
  /// Bandwidth of the local medium serving the image (page-cached loop
  /// mount or overlay upper dir) [bytes/s].
  double local_image_bw = 2.0e9;
};

/// Traits per runtime (bare-metal: trivial pass-through).
IoPathTraits io_path_traits(RuntimeKind kind);

/// Results of one I/O workload across the job.
struct IoResult {
  double time = 0.0;                ///< makespan [s]
  std::uint64_t pfs_data_bytes = 0;  ///< bytes that hit the PFS data plane
  std::uint64_t pfs_metadata_ops = 0;  ///< ops that hit the MDS
};

class IoSimulator {
 public:
  IoSimulator(PfsModel pfs, hw::ClusterSpec cluster);

  /// Application startup "import storm": every rank opens \p files shared
  /// libraries / Python modules of \p bytes_per_file each.  On bare metal
  /// all opens hammer the PFS MDS; with a loop-mounted image they are
  /// local after a one-time image page-in.
  IoResult startup_storm(RuntimeKind runtime, int nodes, int ranks_per_node,
                         std::uint64_t files,
                         std::uint64_t bytes_per_file) const;

  /// N-rank checkpoint: every rank writes \p bytes_per_rank to the PFS
  /// (checkpoints always target the shared filesystem, bind-mounted into
  /// the container, so data rates match bare metal; OverlayFS only hurts
  /// when the application mistakenly writes inside the container rootfs —
  /// modeled by \p inside_rootfs).
  IoResult checkpoint_write(RuntimeKind runtime, int nodes,
                            int ranks_per_node,
                            std::uint64_t bytes_per_rank,
                            bool inside_rootfs = false) const;

  const PfsModel& pfs() const noexcept { return pfs_; }

 private:
  PfsModel pfs_;
  hw::ClusterSpec cluster_;
};

}  // namespace hpcs::container
