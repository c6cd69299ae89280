// Registry pulls: the closed-form wave oracle, and DeploymentSimulator's
// pull phase held against it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "container/deployment.hpp"
#include "container/runtime.hpp"
#include "hw/presets.hpp"
#include "support/pull_time.hpp"

namespace hc = hpcs::container;

namespace {
hc::Image layered() {
  return hc::Image("alya", "v1", hc::ImageFormat::DockerLayered,
                   hpcs::hw::CpuArch::X86_64,
                   hc::BuildMode::SelfContained,
                   {{"sha256:a", 100 << 20, "FROM"},
                    {"sha256:b", 60 << 20, "RUN"}});
}

/// A registry serving \p streams transfers at once over \p egress_bw.
auto pull_time(double egress_bw, int streams) {
  return [=](std::uint64_t bytes, int pullers, double downlink) {
    return hc::concurrent_pull_time(bytes, pullers, downlink, egress_bw,
                                    streams);
  };
}
}  // namespace

TEST(Registry, PullTimeScalesWithBytes) {
  const auto pull = pull_time(1e9, 8);
  EXPECT_GT(pull(200 << 20, 1, 1e9), pull(100 << 20, 1, 1e9));
}

TEST(Registry, StreamLimitCreatesWaves) {
  const auto pull = pull_time(1e9, 4);
  const auto t4 = pull(100 << 20, 4, 1e9);
  const auto t8 = pull(100 << 20, 8, 1e9);
  EXPECT_NEAR(t8, 2.0 * t4, 1e-9);  // two waves
}

TEST(Registry, EgressSharedWithinWave) {
  const auto pull = pull_time(1e9, 8);
  const auto t1 = pull(100 << 20, 1, 1e9);
  const auto t8 = pull(100 << 20, 8, 1e9);
  EXPECT_NEAR(t8, 8.0 * t1, 1e-9);  // egress split 8 ways
}

TEST(Registry, NodeDownlinkCaps) {
  const auto pull = pull_time(100e9, 8);  // huge egress
  const auto slow = pull(100 << 20, 1, 1e8);
  const auto fast = pull(100 << 20, 1, 1e9);
  EXPECT_NEAR(slow, 10.0 * fast, 1e-6);
}

TEST(Registry, ZeroBytesFree) {
  EXPECT_DOUBLE_EQ(pull_time(1e9, 8)(0, 64, 1e9), 0.0);
}

TEST(Registry, Validation) {
  EXPECT_THROW(pull_time(0, 8)(1, 1, 1e9), std::invalid_argument);
  EXPECT_THROW(pull_time(1e9, 0)(1, 1, 1e9), std::invalid_argument);
  const auto pull = pull_time(1e9, 8);
  EXPECT_THROW(pull(1, 0, 1e9), std::invalid_argument);
  EXPECT_THROW(pull(1, 1, 0), std::invalid_argument);
}

TEST(Registry, MorePullersThanStreamsQuantizesIntoWaves) {
  // 5 pullers: a full wave of 4 (egress split 4 ways) plus a solo wave.
  const double t5 = pull_time(1e9, 4)(100 << 20, 5, 1e9);
  const double bytes = static_cast<double>(100 << 20);
  EXPECT_NEAR(t5, bytes / (1e9 / 4.0) + bytes / 1e9, 1e-9);
}

TEST(Registry, ClosedFormMatchesDeploymentDes) {
  // The closed-form concurrent_pull_time and the deployment DES pipeline
  // must agree on the pull phase when service/instantiate are excluded:
  // same bytes, same streams, same egress share.
  const auto cluster = hpcs::hw::presets::lenox();
  const auto img = layered();
  const int nodes = 4;

  const double per_node_share =
      cluster.registry_bw /
      static_cast<double>(std::min(nodes, cluster.registry_streams));
  const double downlink = cluster.fabric.bandwidth();
  const double closed = hc::concurrent_pull_time(
      img.transfer_bytes(), nodes, std::min(downlink, per_node_share),
      cluster.registry_bw, cluster.registry_streams);

  // DES: deploy with Docker (per-node pulls), subtract the non-pull parts.
  hc::DeploymentSimulator sim(cluster, 1);
  const auto rt = hc::ContainerRuntime::make(hc::RuntimeKind::Docker);
  const auto r = sim.deploy(*rt, img, nodes, 1);
  const double extract = static_cast<double>(img.uncompressed_bytes()) /
                         cluster.node.disk_write_bw;
  const double des_pull_approx = r.max_pull_time - extract;
  // Within jitter (3%) and wave quantization.
  EXPECT_NEAR(des_pull_approx, closed / 1.0, closed * 0.15);
}
