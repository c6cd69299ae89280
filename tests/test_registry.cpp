// Registry: publication, layer-level caching, concurrent pull waves.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "container/deployment.hpp"
#include "container/registry.hpp"
#include "container/runtime.hpp"
#include "hw/presets.hpp"

namespace hc = hpcs::container;

namespace {
hc::Image layered() {
  return hc::Image("alya", "v1", hc::ImageFormat::DockerLayered,
                   hpcs::hw::CpuArch::X86_64,
                   hc::BuildMode::SelfContained,
                   {{"sha256:a", 100 << 20, "FROM"},
                    {"sha256:b", 60 << 20, "RUN"}});
}
}  // namespace

TEST(Registry, PushGet) {
  hc::Registry reg(1e9, 8);
  EXPECT_FALSE(reg.has("alya:v1"));
  reg.push(layered());
  EXPECT_TRUE(reg.has("alya:v1"));
  EXPECT_EQ(reg.get("alya:v1").layers().size(), 2u);
  EXPECT_EQ(reg.image_count(), 1u);
}

TEST(Registry, RepushReplaces) {
  hc::Registry reg(1e9, 8);
  reg.push(layered());
  reg.push(layered());
  EXPECT_EQ(reg.image_count(), 1u);
}

TEST(Registry, GetUnknownThrows) {
  hc::Registry reg(1e9, 8);
  EXPECT_THROW(reg.get("nope:latest"), std::out_of_range);
}

TEST(Registry, CachedLayersAreFree) {
  hc::Registry reg(1e9, 8);
  const auto img = layered();
  const auto cold = reg.bytes_to_transfer(img, {});
  const auto warm = reg.bytes_to_transfer(img, {"sha256:a"});
  const auto hot = reg.bytes_to_transfer(img, {"sha256:a", "sha256:b"});
  EXPECT_GT(cold, warm);
  EXPECT_GT(warm, hot);
  // Only per-layer metadata remains when everything is cached.
  EXPECT_LT(hot, 100u * 1024u);
}

TEST(Registry, PullTimeScalesWithBytes) {
  hc::Registry reg(1e9, 8);
  EXPECT_GT(reg.concurrent_pull_time(200 << 20, 1, 1e9),
            reg.concurrent_pull_time(100 << 20, 1, 1e9));
}

TEST(Registry, StreamLimitCreatesWaves) {
  hc::Registry reg(1e9, 4);
  const auto t4 = reg.concurrent_pull_time(100 << 20, 4, 1e9);
  const auto t8 = reg.concurrent_pull_time(100 << 20, 8, 1e9);
  EXPECT_NEAR(t8, 2.0 * t4, 1e-9);  // two waves
}

TEST(Registry, EgressSharedWithinWave) {
  hc::Registry reg(1e9, 8);
  const auto t1 = reg.concurrent_pull_time(100 << 20, 1, 1e9);
  const auto t8 = reg.concurrent_pull_time(100 << 20, 8, 1e9);
  EXPECT_NEAR(t8, 8.0 * t1, 1e-9);  // egress split 8 ways
}

TEST(Registry, NodeDownlinkCaps) {
  hc::Registry reg(100e9, 8);  // huge egress
  const auto slow = reg.concurrent_pull_time(100 << 20, 1, 1e8);
  const auto fast = reg.concurrent_pull_time(100 << 20, 1, 1e9);
  EXPECT_NEAR(slow, 10.0 * fast, 1e-6);
}

TEST(Registry, ZeroBytesFree) {
  hc::Registry reg(1e9, 8);
  EXPECT_DOUBLE_EQ(reg.concurrent_pull_time(0, 64, 1e9), 0.0);
}

TEST(Registry, Validation) {
  EXPECT_THROW(hc::Registry(0, 8), std::invalid_argument);
  EXPECT_THROW(hc::Registry(1e9, 0), std::invalid_argument);
  hc::Registry reg(1e9, 8);
  EXPECT_THROW(reg.concurrent_pull_time(1, 0, 1e9), std::invalid_argument);
  EXPECT_THROW(reg.concurrent_pull_time(1, 1, 0), std::invalid_argument);
}

TEST(Registry, UnknownReferenceMessageNamesTheImage) {
  hc::Registry reg(1e9, 8);
  reg.push(layered());
  try {
    (void)reg.get("alya:v2");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("alya:v2"), std::string::npos);
  }
}

TEST(Registry, MorePullersThanStreamsQuantizesIntoWaves) {
  hc::Registry reg(1e9, 4);
  // 5 pullers: a full wave of 4 (egress split 4 ways) plus a solo wave.
  const double t5 = reg.concurrent_pull_time(100 << 20, 5, 1e9);
  const double bytes = static_cast<double>(100 << 20);
  EXPECT_NEAR(t5, bytes / (1e9 / 4.0) + bytes / 1e9, 1e-9);
}

TEST(Registry, ClosedFormMatchesDeploymentDes) {
  // The closed-form concurrent_pull_time and the deployment DES pipeline
  // must agree on the pull phase when service/instantiate are excluded:
  // same bytes, same streams, same egress share.
  const auto cluster = hpcs::hw::presets::lenox();
  hc::Registry reg(cluster.registry_bw, cluster.registry_streams);
  const auto img = layered();
  const int nodes = 4;

  const double per_node_share =
      cluster.registry_bw /
      static_cast<double>(std::min(nodes, cluster.registry_streams));
  const double downlink = cluster.fabric.bandwidth();
  const double closed = reg.concurrent_pull_time(
      img.transfer_bytes(), nodes, std::min(downlink, per_node_share));

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
