// I/O & distributed-storage extension (the paper's stated future work):
// PFS model, per-runtime filesystem paths, and the three canonical
// workloads.

#include <gtest/gtest.h>

#include "container/io_model.hpp"
#include "hw/presets.hpp"

namespace hc = hpcs::container;
namespace hp = hpcs::hw::presets;

namespace {
hc::IoSimulator sim() {
  return hc::IoSimulator(hc::PfsModel{}, hp::marenostrum4());
}
}  // namespace

TEST(Pfs, Validation) {
  hc::PfsModel p;
  p.aggregate_bw = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = hc::PfsModel{};
  p.metadata_ops_per_s = -1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Pfs, ClientBandwidthCapsAndShares) {
  hc::PfsModel p;
  p.aggregate_bw = 50e9;
  p.per_client_bw = 2.5e9;
  EXPECT_DOUBLE_EQ(p.client_bw(1), 2.5e9);   // client-limited
  EXPECT_DOUBLE_EQ(p.client_bw(100), 0.5e9);  // aggregate-limited
  EXPECT_THROW(p.client_bw(0), std::invalid_argument);
}

TEST(Pfs, MetadataLatencyVsThroughputRegimes) {
  hc::PfsModel p;
  // One client: latency-bound.
  EXPECT_NEAR(p.metadata_time(1000, 1), 1000 * p.metadata_latency, 1e-9);
  // Thousands of clients: MDS-throughput-bound, grows with clients.
  EXPECT_GT(p.metadata_time(1000, 10000), p.metadata_time(1000, 1000));
}

TEST(IoTraits, PerRuntimeShapes) {
  const auto bare = hc::io_path_traits(hc::RuntimeKind::BareMetal);
  EXPECT_FALSE(bare.image_metadata_local);
  EXPECT_DOUBLE_EQ(bare.overlay_copy_up_factor, 0.0);

  const auto docker = hc::io_path_traits(hc::RuntimeKind::Docker);
  EXPECT_TRUE(docker.image_metadata_local);
  EXPECT_GT(docker.overlay_copy_up_factor, 0.0);

  for (auto k : {hc::RuntimeKind::Singularity, hc::RuntimeKind::Shifter}) {
    const auto t = hc::io_path_traits(k);
    EXPECT_TRUE(t.image_metadata_local);
    EXPECT_DOUBLE_EQ(t.overlay_copy_up_factor, 0.0);  // read-only squashfs
    EXPECT_LT(t.image_read_efficiency, 1.0);          // decompression cost
  }
}

TEST(IoStorm, ContainersBeatBareMetalAtScale) {
  // The classic result: at scale the shared-library import storm is
  // MDS-bound on bare metal but node-local from a loop-mounted image.
  const auto s = sim();
  const auto bm = s.startup_storm(hc::RuntimeKind::BareMetal, 256, 48,
                                  2000, 256 * 1024);
  const auto sing = s.startup_storm(hc::RuntimeKind::Singularity, 256, 48,
                                    2000, 256 * 1024);
  EXPECT_GT(bm.time, 10.0 * sing.time);
  EXPECT_GT(bm.pfs_metadata_ops, 1000u * sing.pfs_metadata_ops);
}

TEST(IoStorm, BareMetalStormGrowsWithClients) {
  const auto s = sim();
  const auto small = s.startup_storm(hc::RuntimeKind::BareMetal, 4, 48,
                                     2000, 256 * 1024);
  const auto big = s.startup_storm(hc::RuntimeKind::BareMetal, 256, 48,
                                   2000, 256 * 1024);
  EXPECT_GT(big.time, small.time);
}

TEST(IoStorm, ContainerStormNearlyFlatInNodes) {
  // Only the handful of residual PFS opens scale with clients; the bulk
  // of the storm is node-local, so the container curve grows far slower
  // than bare metal's.
  const auto s = sim();
  const auto small = s.startup_storm(hc::RuntimeKind::Singularity, 4, 48,
                                     2000, 256 * 1024);
  const auto big = s.startup_storm(hc::RuntimeKind::Singularity, 256, 48,
                                   2000, 256 * 1024);
  const double container_growth = big.time / small.time;
  const double bare_growth =
      s.startup_storm(hc::RuntimeKind::BareMetal, 256, 48, 2000, 256 * 1024)
          .time /
      s.startup_storm(hc::RuntimeKind::BareMetal, 4, 48, 2000, 256 * 1024)
          .time;
  EXPECT_LT(container_growth, 8.0);
  EXPECT_LT(container_growth, bare_growth / 4.0);
}

TEST(IoCheckpoint, BindMountedPathMatchesBareMetal) {
  const auto s = sim();
  const std::uint64_t bytes = 1ull << 28;
  const auto bm =
      s.checkpoint_write(hc::RuntimeKind::BareMetal, 64, 48, bytes);
  const auto sing =
      s.checkpoint_write(hc::RuntimeKind::Singularity, 64, 48, bytes);
  EXPECT_DOUBLE_EQ(bm.time, sing.time);
  EXPECT_EQ(bm.pfs_data_bytes, sing.pfs_data_bytes);
}

TEST(IoCheckpoint, OverlayCopyUpPenalty) {
  const auto s = sim();
  const std::uint64_t bytes = 1ull << 28;
  const auto good =
      s.checkpoint_write(hc::RuntimeKind::Docker, 4, 48, bytes, false);
  const auto bad =
      s.checkpoint_write(hc::RuntimeKind::Docker, 4, 48, bytes, true);
  EXPECT_GT(bad.time, good.time);
  EXPECT_EQ(bad.pfs_data_bytes, 0u);  // the data never reached the PFS!
}

TEST(IoCheckpoint, ReadOnlyRootfsRefusesWrites) {
  const auto s = sim();
  EXPECT_THROW(s.checkpoint_write(hc::RuntimeKind::Singularity, 4, 48,
                                  1 << 20, /*inside_rootfs=*/true),
               std::runtime_error);
}

TEST(IoCheckpoint, AggregateBandwidthBound) {
  const auto s = sim();
  const std::uint64_t bytes = 1ull << 28;
  const auto n64 =
      s.checkpoint_write(hc::RuntimeKind::BareMetal, 64, 48, bytes);
  const auto n256 =
      s.checkpoint_write(hc::RuntimeKind::BareMetal, 256, 48, bytes);
  // Past PFS saturation, per-node time stops improving (64 nodes already
  // saturate 50 GB/s at 2.5 GB/s/client x 20).
  EXPECT_GE(n256.time, n64.time * 0.99);
}

TEST(Io, GeometryValidation) {
  const auto s = sim();
  EXPECT_THROW(s.startup_storm(hc::RuntimeKind::BareMetal, 0, 1, 1, 1),
               std::invalid_argument);
  EXPECT_THROW(s.checkpoint_write(hc::RuntimeKind::BareMetal, 4000, 1, 1),
               std::invalid_argument);
}
