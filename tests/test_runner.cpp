// Experiment runner: determinism and the paper's qualitative results —
// Singularity/Shifter ~ bare-metal, Docker degrades with rank count,
// self-contained images lose the fabric, scaling shapes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "core/images.hpp"
#include "core/runner.hpp"
#include "hw/presets.hpp"
#include "sim/rng.hpp"

namespace hs = hpcs::study;
namespace hc = hpcs::container;
namespace hp = hpcs::hw::presets;

namespace {

hs::Scenario base_scenario(const hpcs::hw::ClusterSpec& cluster,
                           hc::RuntimeKind rt, int nodes, int ranks,
                           int threads,
                           hs::AppCase app = hs::AppCase::ArteryCfd) {
  hs::Scenario s{.cluster = cluster,
                 .runtime = rt,
                 .app = app,
                 .nodes = nodes,
                 .ranks = ranks,
                 .threads = threads,
                 .time_steps = 5};
  if (rt != hc::RuntimeKind::BareMetal)
    s.image = hs::alya_image(cluster, rt, hc::BuildMode::SystemSpecific);
  return s;
}

/// Reference straggler jitter: every rank draws its lognormal, and the
/// step takes the max.
double per_rank_lognormal_max(const hpcs::sim::Rng& rng, int ranks, int step,
                              double sigma) {
  double max_jitter = 0.0;
  for (int r = 0; r < ranks; ++r) {
    const std::uint64_t stream =
        static_cast<std::uint64_t>(r) * std::uint64_t{1000003} +
        static_cast<std::uint64_t>(step);
    auto rrng = rng.child(stream);
    max_jitter = std::max(max_jitter, rrng.lognormal_median(1.0, sigma));
  }
  return max_jitter;
}

}  // namespace

TEST(Runner, StepJitterIsBitEqualToPerRankLognormalMax) {
  // bsp_step_jitter skips ranks whose Box-Muller radius cannot beat the
  // running max; the result must still be the exact max, bit for bit.
  for (const std::uint64_t seed : {1ull, 7ull, 104729ull}) {
    const hpcs::sim::Rng rng(seed);
    for (const int ranks : {0, 1, 2, 3, 48, 12288}) {
      // Small rank counts are cheap and have few ranks to prune, so they
      // get many steps; 12288 (fig3's 256 x 48) gets a few.
      const int n_steps = ranks >= 1000 ? 3 : 64;
      for (int step = 0; step < 7 * n_steps; step += 7) {
        for (const double sigma : {0.0, 0.008, 0.05, 0.5}) {
          SCOPED_TRACE(::testing::Message()
                       << "seed " << seed << " ranks " << ranks << " step "
                       << step << " sigma " << sigma);
          ASSERT_EQ(hs::bsp_step_jitter(rng, ranks, step, sigma),
                    per_rank_lognormal_max(rng, ranks, step, sigma));
        }
      }
    }
  }
}

TEST(Runner, DeterministicForSameSeed) {
  const hs::ExperimentRunner runner;
  const auto s = base_scenario(hp::lenox(), hc::RuntimeKind::BareMetal, 4,
                               28, 4);
  const auto a = runner.run(s);
  const auto b = runner.run(s);
  EXPECT_DOUBLE_EQ(a.avg_step_time, b.avg_step_time);
  EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
}

TEST(Runner, SeedChangesJitterNotScale) {
  const hs::ExperimentRunner runner;
  auto s = base_scenario(hp::lenox(), hc::RuntimeKind::BareMetal, 4, 28, 4);
  const auto a = runner.run(s);
  s.seed = 99;
  const auto b = runner.run(s);
  EXPECT_NE(a.avg_step_time, b.avg_step_time);
  EXPECT_NEAR(a.avg_step_time, b.avg_step_time, 0.1 * a.avg_step_time);
}

TEST(Runner, ResultFieldsPopulated) {
  const hs::ExperimentRunner runner;
  const auto r = runner.run(
      base_scenario(hp::lenox(), hc::RuntimeKind::BareMetal, 4, 28, 4));
  EXPECT_EQ(r.step_times.count(), 5u);
  EXPECT_GT(r.avg_step_time, 0.0);
  EXPECT_NEAR(r.total_time, r.avg_step_time * 5.0, 1e-9);
  EXPECT_GT(r.compute_time, 0.0);
  EXPECT_GT(r.halo_time, 0.0);
  EXPECT_GT(r.reduction_time, 0.0);
  EXPECT_GE(r.comm_fraction, 0.0);
  EXPECT_LE(r.comm_fraction, 1.0);
  EXPECT_EQ(r.ranks, 28);
}

TEST(Runner, HpcContainersNearBareMetal) {
  // Fig. 1's central claim: Singularity and Shifter reach close to
  // bare-metal performance.
  const hs::ExperimentRunner runner;
  for (auto [ranks, threads] : {std::pair{8, 14}, {28, 4}, {112, 1}}) {
    const auto bm = runner.run(base_scenario(
        hp::lenox(), hc::RuntimeKind::BareMetal, 4, ranks, threads));
    const auto sing = runner.run(base_scenario(
        hp::lenox(), hc::RuntimeKind::Singularity, 4, ranks, threads));
    const auto shift = runner.run(base_scenario(
        hp::lenox(), hc::RuntimeKind::Shifter, 4, ranks, threads));
    EXPECT_LT(sing.avg_step_time / bm.avg_step_time, 1.06)
        << ranks << "x" << threads;
    EXPECT_LT(shift.avg_step_time / bm.avg_step_time, 1.06)
        << ranks << "x" << threads;
  }
}

TEST(Runner, DockerDegradesWithMpiScale) {
  // Fig. 1's other claim: Docker degrades as MPI ranks grow.
  const hs::ExperimentRunner runner;
  auto ratio = [&](int ranks, int threads) {
    auto docker = base_scenario(hp::lenox(), hc::RuntimeKind::Docker, 4,
                                ranks, threads);
    docker.image = hs::alya_image(hp::lenox(), hc::RuntimeKind::Docker,
                                  hc::BuildMode::SelfContained);
    const auto d = runner.run(docker);
    const auto b = runner.run(base_scenario(
        hp::lenox(), hc::RuntimeKind::BareMetal, 4, ranks, threads));
    return d.avg_step_time / b.avg_step_time;
  };
  const double r8 = ratio(8, 14);
  const double r112 = ratio(112, 1);
  EXPECT_GT(r112, r8 * 1.15);  // monotone degradation with ranks
  EXPECT_GT(r112, 1.3);        // clearly worse than bare-metal at 112 ranks
  EXPECT_LT(r8, 1.35);         // near bare-metal at few ranks
}

TEST(Runner, SystemSpecificMatchesBareMetalOnRdmaCluster) {
  // Fig. 2: the integrated container equals bare-metal performance.
  const hs::ExperimentRunner runner;
  const auto cte = hp::cte_power();
  for (int nodes : {2, 8, 16}) {
    const auto bm = runner.run(base_scenario(
        cte, hc::RuntimeKind::BareMetal, nodes, nodes * 40, 1));
    const auto sys = runner.run(base_scenario(
        cte, hc::RuntimeKind::Singularity, nodes, nodes * 40, 1));
    EXPECT_LT(sys.avg_step_time / bm.avg_step_time, 1.05) << nodes;
  }
}

TEST(Runner, SelfContainedLosesFabricOnRdmaCluster) {
  // Fig. 2: the self-contained container cannot use the EDR network and
  // falls behind, increasingly so with node count.
  const hs::ExperimentRunner runner;
  const auto cte = hp::cte_power();
  auto self_ratio = [&](int nodes) {
    auto s = base_scenario(cte, hc::RuntimeKind::Singularity, nodes,
                           nodes * 40, 1);
    s.image = hs::alya_image(cte, hc::RuntimeKind::Singularity,
                             hc::BuildMode::SelfContained);
    const auto self = runner.run(s);
    const auto bm = runner.run(base_scenario(
        cte, hc::RuntimeKind::BareMetal, nodes, nodes * 40, 1));
    return self.avg_step_time / bm.avg_step_time;
  };
  const double r2 = self_ratio(2);
  const double r16 = self_ratio(16);
  EXPECT_GT(r16, r2);      // gap widens with scale
  EXPECT_GT(r16, 1.5);     // clearly slower at 16 nodes
}

TEST(Runner, Fig3ScalingShapes) {
  // Fig. 3 (MareNostrum4, FSI): bare-metal and system-specific keep
  // scaling to 256 nodes; self-contained saturates around 32 nodes.
  const hs::ExperimentRunner runner;
  const auto mn4 = hp::marenostrum4();
  auto time_at = [&](int nodes, hc::RuntimeKind rt, hc::BuildMode mode) {
    auto s = base_scenario(mn4, rt, nodes, nodes * 48, 1,
                           hs::AppCase::ArteryFsi);
    if (rt != hc::RuntimeKind::BareMetal)
      s.image = hs::alya_image(mn4, rt, mode);
    s.time_steps = 3;
    return runner.run(s).avg_step_time;
  };

  // Bare-metal speedup 4 -> 256 nodes (ideal 64x, as Fig. 3 normalizes):
  // at least half of ideal, at most ideal.
  const double bm4 = time_at(4, hc::RuntimeKind::BareMetal,
                             hc::BuildMode::SystemSpecific);
  const double bm256 = time_at(256, hc::RuntimeKind::BareMetal,
                               hc::BuildMode::SystemSpecific);
  const double bm_speedup = bm4 / bm256;  // ideal = 256/4 = 64
  EXPECT_GT(bm_speedup, 32.0);
  EXPECT_LE(bm_speedup, 64.5);

  // System-specific tracks bare-metal.
  const double sys256 = time_at(256, hc::RuntimeKind::Singularity,
                                hc::BuildMode::SystemSpecific);
  EXPECT_LT(sys256 / bm256, 1.06);

  // Self-contained stops scaling: 256-node time not much better than the
  // 32-node time.
  const double self32 = time_at(32, hc::RuntimeKind::Singularity,
                                hc::BuildMode::SelfContained);
  const double self256 = time_at(256, hc::RuntimeKind::Singularity,
                                 hc::BuildMode::SelfContained);
  EXPECT_GT(self32 / self256, 0.5);  // < 2x gain from 8x more nodes
  // And it is far off bare-metal at scale.
  EXPECT_GT(self256 / bm256, 3.0);
}

TEST(Runner, DeploymentAttached) {
  const hs::ExperimentRunner runner;
  auto s = base_scenario(hp::lenox(), hc::RuntimeKind::Docker, 4, 28, 4);
  s.image = hs::alya_image(hp::lenox(), hc::RuntimeKind::Docker,
                           hc::BuildMode::SelfContained);
  const auto r = runner.run(s);
  EXPECT_GT(r.deployment.total_time, 0.0);
  EXPECT_EQ(r.deployment.containers, 28);
  const auto bm = runner.run(
      base_scenario(hp::lenox(), hc::RuntimeKind::BareMetal, 4, 28, 4));
  EXPECT_DOUBLE_EQ(bm.deployment.total_time, 0.0);
}

TEST(Runner, InvalidScenarioRejected) {
  const hs::ExperimentRunner runner;
  auto s = base_scenario(hp::lenox(), hc::RuntimeKind::BareMetal, 4, 28, 4);
  s.ranks = 30;
  EXPECT_THROW(runner.run(s), std::invalid_argument);
}

TEST(Runner, OptionsValidated) {
  hs::RunnerOptions o;
  o.noise_sigma = 0.9;
  EXPECT_THROW(hs::ExperimentRunner{o}, std::invalid_argument);
}

TEST(Runner, OsNoiseSlowsBulkSynchronousSteps) {
  // The step advances at the pace of the slowest rank, so raising the
  // per-rank noise raises the mean step time (max-of-lognormal effect).
  auto mean_with_sigma = [&](double sigma) {
    hs::RunnerOptions opts;
    opts.noise_sigma = sigma;
    const hs::ExperimentRunner runner(opts);
    auto s = base_scenario(hp::marenostrum4(), hc::RuntimeKind::BareMetal,
                           32, 32 * 48, 1);
    s.time_steps = 5;
    return runner.run(s).avg_step_time;
  };
  const double quiet = mean_with_sigma(0.0);
  const double noisy = mean_with_sigma(0.05);
  EXPECT_GT(noisy, quiet * 1.05);
}
