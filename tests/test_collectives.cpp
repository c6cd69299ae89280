// The allreduce cost model: hierarchical vs flat (the Docker-UTS effect).

#include <gtest/gtest.h>

#include "container/transport.hpp"
#include "hw/presets.hpp"
#include "mpi/collectives.hpp"

namespace hm = hpcs::mpi;
namespace hc = hpcs::container;
namespace hp = hpcs::hw::presets;

namespace {
hc::CommPaths bare_paths(const hpcs::hw::ClusterSpec& cluster) {
  const auto rt = hc::ContainerRuntime::make(hc::RuntimeKind::BareMetal);
  return hc::resolve_comm_paths(*rt, nullptr, cluster);
}
}  // namespace

TEST(Collectives, AllreduceGrowsWithNodes) {
  const auto mn4 = hp::marenostrum4();
  const auto paths = bare_paths(mn4);
  double prev = 0.0;
  for (int nodes : {2, 8, 32, 128}) {
    hm::JobMapping map(mn4, nodes, nodes * 48, 1);
    hm::CostModel cost(paths, map);
    hm::Collectives coll(cost);
    const double t = coll.allreduce(8);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Collectives, AllreduceLogarithmicInNodes) {
  const auto mn4 = hp::marenostrum4();
  const auto paths = bare_paths(mn4);
  auto allreduce_at = [&](int nodes) {
    hm::JobMapping map(mn4, nodes, nodes * 48, 1);
    hm::CostModel cost(paths, map);
    return hm::Collectives(cost).allreduce(8);
  };
  // Doubling node count adds ~one inter-node stage, not a doubling.
  const double t64 = allreduce_at(64);
  const double t128 = allreduce_at(128);
  EXPECT_LT(t128 / t64, 1.5);
}

TEST(Collectives, HierarchicalBeatsFlatOnMultirankNodes) {
  const auto lenox = hp::lenox();
  const auto paths = bare_paths(lenox);
  hm::JobMapping map(lenox, 4, 112, 1);
  hm::CostModel cost(paths, map);
  const double hier = hm::Collectives(cost, true).allreduce(8);
  const double flat = hm::Collectives(cost, false).allreduce(8);
  EXPECT_GT(flat, hier);
}

TEST(Collectives, FlatEqualsHierarchyForOneRankPerNode) {
  // With 1 rank/node there is no hierarchy to exploit; costs are close
  // (same number of inter-node stages).
  const auto mn4 = hp::marenostrum4();
  const auto paths = bare_paths(mn4);
  hm::JobMapping map(mn4, 8, 8, 1);
  hm::CostModel cost(paths, map);
  const double hier = hm::Collectives(cost, true).allreduce(8);
  const double flat = hm::Collectives(cost, false).allreduce(8);
  EXPECT_NEAR(flat, hier, hier * 0.01);
}

TEST(Collectives, SingleRankDegenerate) {
  const auto mn4 = hp::marenostrum4();
  const auto paths = bare_paths(mn4);
  hm::JobMapping map(mn4, 1, 1, 1);
  hm::CostModel cost(paths, map);
  hm::Collectives coll(cost);
  EXPECT_DOUBLE_EQ(coll.allreduce(8), 0.0);
}

TEST(Collectives, TopologyAwareFlagVisible) {
  const auto mn4 = hp::marenostrum4();
  const auto paths = bare_paths(mn4);
  hm::JobMapping map(mn4, 2, 96, 1);
  hm::CostModel cost(paths, map);
  EXPECT_TRUE(hm::Collectives(cost, true).topology_aware());
  EXPECT_FALSE(hm::Collectives(cost, false).topology_aware());
}
