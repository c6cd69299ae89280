// Message-level replay vs the runner's BSP approximation: the cheap model
// must bracket the detailed one (within a modest factor), which is what
// justifies using it at 12k ranks.

#include <gtest/gtest.h>

#include "container/transport.hpp"
#include "hw/presets.hpp"
#include "sim/rng.hpp"
#include "support/des_replay.hpp"

namespace hm = hpcs::mpi;
namespace hc = hpcs::container;
namespace hp = hpcs::hw::presets;

namespace {

struct ReplaySetup {
  hc::CommPaths paths;
  hm::JobMapping mapping;
  hm::CostModel cost;

  ReplaySetup(const hpcs::hw::ClusterSpec& cluster, int nodes, int ranks)
      : paths(hc::resolve_comm_paths(
            *hc::ContainerRuntime::make(hc::RuntimeKind::BareMetal),
            nullptr, cluster)),
        mapping(cluster, nodes, ranks, 1),
        cost(paths, mapping) {}
};

}  // namespace

TEST(DesReplay, ConfigValidation) {
  hm::ReplayConfig c;
  c.iterations = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = hm::ReplayConfig{};
  c.neighbors = -1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(DesReplay, RejectsWrongComputeSize) {
  ReplaySetup s(hp::marenostrum4(), 2, 96);
  hm::DesReplay replay(s.cost, hm::ReplayConfig{});
  std::vector<double> wrong(10, 1.0);
  EXPECT_THROW(replay.run(wrong), std::invalid_argument);
  EXPECT_THROW(replay.bsp_estimate(wrong), std::invalid_argument);
}

TEST(DesReplay, UniformComputeMatchesBspClosely) {
  ReplaySetup s(hp::marenostrum4(), 4, 192);
  hm::ReplayConfig cfg;
  cfg.iterations = 10;
  cfg.halo_bytes = 8 * 1024;
  cfg.neighbors = 6;
  cfg.reductions = 3;
  hm::DesReplay replay(s.cost, cfg);

  std::vector<double> compute(192, 1e-3);
  const auto r = replay.run(compute);
  const double bsp = replay.bsp_estimate(compute);
  // With uniform compute the BSP bound is tight: within 25%.
  EXPECT_GT(r.makespan, bsp * 0.6);
  EXPECT_LT(r.makespan, bsp * 1.25);
}

TEST(DesReplay, BspBoundsImbalancedCompute) {
  ReplaySetup s(hp::marenostrum4(), 4, 192);
  hm::ReplayConfig cfg;
  cfg.iterations = 5;
  cfg.halo_bytes = 4 * 1024;
  hm::DesReplay replay(s.cost, cfg);

  hpcs::sim::Rng rng(7);
  std::vector<double> compute(192);
  for (auto& c : compute) c = rng.uniform(0.5e-3, 1.5e-3);
  const auto r = replay.run(compute);
  const double bsp = replay.bsp_estimate(compute);
  // The BSP estimate uses max-compute per iteration, so it must not be
  // exceeded by much (halo overlap can only help the replay)...
  EXPECT_LT(r.makespan, bsp * 1.1);
  // ...but it must stay above the naive mean-based estimate (noise
  // amplification is real).
  double mean = 0;
  for (double c : compute) mean += c;
  mean /= static_cast<double>(compute.size());
  EXPECT_GT(r.makespan, mean * cfg.iterations);
}

TEST(DesReplay, WaitsGrowWithImbalance) {
  ReplaySetup s(hp::marenostrum4(), 2, 96);
  hm::ReplayConfig cfg;
  cfg.iterations = 3;
  cfg.halo_bytes = 8 * 1024;
  cfg.reductions = 0;  // isolate the halo waits
  hm::DesReplay replay(s.cost, cfg);

  std::vector<double> uniform(96, 1e-3);
  std::vector<double> skewed(96, 1e-3);
  skewed[10] = 5e-3;  // one straggler
  const auto ru = replay.run(uniform);
  const auto rs = replay.run(skewed);
  EXPECT_GT(rs.max_wait, ru.max_wait);
  EXPECT_GT(rs.makespan, ru.makespan);
}

TEST(DesReplay, StragglerDelaysEveryoneThroughReductions) {
  ReplaySetup s(hp::marenostrum4(), 2, 96);
  hm::ReplayConfig cfg;
  cfg.iterations = 4;
  cfg.reductions = 3;
  hm::DesReplay replay(s.cost, cfg);
  std::vector<double> skewed(96, 1e-3);
  skewed[0] = 4e-3;
  const auto r = replay.run(skewed);
  // Global reductions serialize on the straggler every iteration.
  EXPECT_GT(r.makespan, 4 * 4e-3 * 0.999);
}

TEST(DesReplay, SingleRankDegenerates) {
  ReplaySetup s(hp::marenostrum4(), 1, 1);
  hm::ReplayConfig cfg;
  cfg.iterations = 7;
  cfg.neighbors = 0;
  cfg.reductions = 0;
  hm::DesReplay replay(s.cost, cfg);
  const auto r = replay.run({2e-3});
  EXPECT_NEAR(r.makespan, 7 * 2e-3, 1e-12);
  EXPECT_DOUBLE_EQ(r.max_wait, 0.0);
}
