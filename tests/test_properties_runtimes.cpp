// Property sweeps over (runtime x build mode x cluster): the transport
// decision table and deployment must satisfy cross-cutting invariants.

#include <gtest/gtest.h>

#include <tuple>

#include "container/deployment.hpp"
#include "container/transport.hpp"
#include "core/images.hpp"
#include "hw/presets.hpp"

namespace hc = hpcs::container;
namespace hp = hpcs::hw::presets;
namespace hs = hpcs::study;

namespace {

using Combo = std::tuple<hc::RuntimeKind, hc::BuildMode, int /*cluster*/>;

// ctest ids of the AllCombos instances carry gtest's raw-byte print of
// RuntimeKind and BuildMode ("4-byte object <01-00 00-00>"), so pin the
// values: a reordered enum fails to compile here instead of renaming
// every id.
static_assert(static_cast<int>(hc::RuntimeKind::BareMetal) == 0 &&
              static_cast<int>(hc::RuntimeKind::Docker) == 1 &&
              static_cast<int>(hc::RuntimeKind::Singularity) == 2 &&
              static_cast<int>(hc::RuntimeKind::Shifter) == 3);
static_assert(static_cast<int>(hc::BuildMode::SystemSpecific) == 0 &&
              static_cast<int>(hc::BuildMode::SelfContained) == 1);

hpcs::hw::ClusterSpec cluster_of(int idx) {
  switch (idx) {
    case 0:
      return hp::lenox();
    case 1:
      return hp::marenostrum4();
    case 2:
      return hp::cte_power();
    default:
      return hp::thunderx();
  }
}

class RuntimeClusterProperty : public ::testing::TestWithParam<Combo> {
 protected:
  bool applicable() const {
    const auto [rt, mode, ci] = GetParam();
    const auto cluster = cluster_of(ci);
    return cluster.has_runtime(std::string(to_string(rt)));
  }
};

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  const auto [rt, mode, ci] = info.param;
  std::string s = std::string(to_string(rt)) + "_" +
                  std::string(to_string(mode)) + "_" +
                  cluster_of(ci).name;
  for (auto& c : s)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return s;
}

}  // namespace

TEST_P(RuntimeClusterProperty, PathsResolveAndAreSane) {
  if (!applicable()) GTEST_SKIP() << "runtime not installed";
  const auto [kind, mode, ci] = GetParam();
  const auto cluster = cluster_of(ci);
  const auto rt = hc::ContainerRuntime::make(kind);
  const auto image = hs::alya_image(cluster, kind, mode);
  const auto paths = hc::resolve_comm_paths(
      *rt, kind == hc::RuntimeKind::BareMetal ? nullptr : &image, cluster);

  // Inter-node is never faster than the machine's best fabric.
  EXPECT_GE(paths.internode.latency(), cluster.fabric.latency() * 0.999);
  EXPECT_LE(paths.internode.bandwidth(), cluster.fabric.bandwidth() * 1.001);
  // Small intra-node messages never cost more than inter-node ones by a
  // wide margin (the loopback path is still on-node).
  EXPECT_LT(paths.intranode.p2p_time(8, 1),
            paths.internode.p2p_time(8, 1) * 2.0);
}

TEST_P(RuntimeClusterProperty, HostFabricOnlyForTrustedPaths) {
  if (!applicable()) GTEST_SKIP() << "runtime not installed";
  const auto [kind, mode, ci] = GetParam();
  const auto cluster = cluster_of(ci);
  const auto rt = hc::ContainerRuntime::make(kind);
  const auto image = hs::alya_image(cluster, kind, mode);
  const auto paths = hc::resolve_comm_paths(
      *rt, kind == hc::RuntimeKind::BareMetal ? nullptr : &image, cluster);

  if (paths.uses_host_fabric) {
    // Only bare metal or system-specific images on SUID runtimes, and
    // only on clusters whose fabric is RDMA.
    EXPECT_EQ(cluster.fabric.transport(), hpcs::net::Transport::Rdma);
    EXPECT_NE(kind, hc::RuntimeKind::Docker);
    if (kind != hc::RuntimeKind::BareMetal) {
      EXPECT_EQ(mode, hc::BuildMode::SystemSpecific);
    }
  }
}

TEST_P(RuntimeClusterProperty, DeploymentDeterministicAndBounded) {
  if (!applicable()) GTEST_SKIP() << "runtime not installed";
  const auto [kind, mode, ci] = GetParam();
  if (kind == hc::RuntimeKind::BareMetal) GTEST_SKIP();
  const auto cluster = cluster_of(ci);
  const auto rt = hc::ContainerRuntime::make(kind);
  const auto image = hs::alya_image(cluster, kind, mode);
  const int nodes = std::min(4, cluster.node_count);
  const int rpn = cluster.node.cpu.cores();

  hc::DeploymentSimulator a(cluster, 11), b(cluster, 11);
  const auto ra = a.deploy(*rt, image, nodes, rpn);
  const auto rb = b.deploy(*rt, image, nodes, rpn);
  EXPECT_DOUBLE_EQ(ra.total_time, rb.total_time);
  EXPECT_GT(ra.total_time, 0.0);
  EXPECT_LT(ra.total_time, 600.0);  // minutes, not hours
  EXPECT_EQ(ra.node_ready_times.count(), static_cast<std::size_t>(nodes));
}

TEST_P(RuntimeClusterProperty, InstantiationCostsSubSecondPerContainer) {
  const auto [kind, mode, ci] = GetParam();
  if (kind == hc::RuntimeKind::BareMetal) GTEST_SKIP();
  const auto cluster = cluster_of(ci);
  const auto rt = hc::ContainerRuntime::make(kind);
  const auto image = hs::alya_image(cluster, kind, mode);
  const double t = rt->instantiate_time(image, cluster.node);
  EXPECT_GT(t, 0.0);
  EXPECT_LT(t, 1.5);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, RuntimeClusterProperty,
    ::testing::Combine(
        ::testing::Values(hc::RuntimeKind::BareMetal, hc::RuntimeKind::Docker,
                          hc::RuntimeKind::Singularity,
                          hc::RuntimeKind::Shifter),
        ::testing::Values(hc::BuildMode::SystemSpecific,
                          hc::BuildMode::SelfContained),
        ::testing::Values(0, 1, 2, 3)),
    combo_name);
