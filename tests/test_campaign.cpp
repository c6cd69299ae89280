// The campaign engine: cartesian expansion, seed stability, failure
// isolation, the shared image-build cache, and jobs-count invariance.

#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "hw/presets.hpp"

namespace hs = hpcs::study;
namespace hc = hpcs::container;
namespace hw = hpcs::hw;

namespace {

hs::CampaignSpec small_spec() {
  hs::CampaignSpec spec;
  spec.name = "test";
  spec.cluster(hw::presets::lenox())
      .variant(hc::RuntimeKind::BareMetal)
      .variant(hc::RuntimeKind::Singularity)
      .nodes({2, 4})
      .steps(2);
  return spec;
}

}  // namespace

TEST(CampaignSpec, SizeIsTheCartesianProduct) {
  auto spec = small_spec();
  EXPECT_EQ(spec.size(), 4u);  // 1 cluster x 2 variants x 2 node counts
  spec.cluster(hw::presets::cte_power()).app(hs::AppCase::ArteryFsi).reps(3);
  // 2 clusters x 2 variants x 1 app x 2 node counts x 1 geometry x 3 reps.
  EXPECT_EQ(spec.size(), 2u * 2u * 1u * 2u * 1u * 3u);
}

TEST(CampaignSpec, ExpandsInFixedAxisOrder) {
  auto spec = small_spec();
  const auto cells = spec.expand();
  ASSERT_EQ(cells.size(), 4u);
  // variants (outer) > node counts (inner): bare-metal n2, n4; then
  // singularity n2, n4.
  EXPECT_EQ(cells[0].key, "Lenox/bare-metal/artery-cfd/n2/56x1/r0");
  EXPECT_EQ(cells[1].key, "Lenox/bare-metal/artery-cfd/n4/112x1/r0");
  EXPECT_EQ(cells[2].key,
            "Lenox/singularity(system-specific)/artery-cfd/n2/56x1/r0");
  EXPECT_EQ(cells[3].key,
            "Lenox/singularity(system-specific)/artery-cfd/n4/112x1/r0");
  for (std::size_t i = 0; i < cells.size(); ++i)
    EXPECT_EQ(cells[i].index, i);
}

TEST(CampaignSpec, DefaultGeometryFillsCores) {
  const auto cells = small_spec().expand();
  // Lenox has 28 cores per node; ranks == 0, threads == 1 fills them all.
  EXPECT_EQ(cells[0].scenario.ranks, 2 * 28);
  EXPECT_EQ(cells[1].scenario.ranks, 4 * 28);
  EXPECT_EQ(cells[0].scenario.threads, 1);
}

TEST(CampaignSpec, ValidateRejectsBadSpecs) {
  hs::CampaignSpec empty;
  EXPECT_THROW(empty.validate(), std::invalid_argument);  // no clusters

  hs::CampaignSpec no_variant;
  no_variant.cluster(hw::presets::lenox());
  EXPECT_THROW(no_variant.validate(), std::invalid_argument);

  auto bad_steps = small_spec();
  bad_steps.steps(0);
  EXPECT_THROW(bad_steps.validate(), std::invalid_argument);

  auto bad_reps = small_spec();
  bad_reps.reps(0);
  EXPECT_THROW(bad_reps.validate(), std::invalid_argument);

  auto bad_nodes = small_spec();
  bad_nodes.nodes({2, 0});
  EXPECT_THROW(bad_nodes.validate(), std::invalid_argument);

  auto bad_geom = small_spec();
  bad_geom.geometry(8, 0);
  EXPECT_THROW(bad_geom.validate(), std::invalid_argument);
}

TEST(CampaignSpec, SeedsAreStableAcrossExpansions) {
  auto spec = small_spec();
  const auto a = spec.expand();
  const auto b = spec.expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].scenario.seed, b[i].scenario.seed);
  }
}

TEST(CampaignSpec, AddingAnAxisValueKeepsExistingSeeds) {
  auto spec = small_spec();
  std::map<std::string, std::uint64_t> before;
  for (const auto& c : spec.expand()) before[c.key] = c.scenario.seed;

  // Growing the campaign must not reshuffle the cells already in it.
  spec.cluster(hw::presets::cte_power()).nodes({2, 4, 8}).reps(2);
  std::map<std::string, std::uint64_t> after;
  for (const auto& c : spec.expand()) after[c.key] = c.scenario.seed;

  for (const auto& [key, seed] : before) {
    ASSERT_TRUE(after.count(key)) << key;
    EXPECT_EQ(after[key], seed) << key;
  }
}

TEST(CampaignSpec, RepetitionsGetDistinctSeeds) {
  auto spec = small_spec();
  spec.nodes({4}).reps(3);
  const auto cells = spec.expand();
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_NE(cells[0].scenario.seed, cells[1].scenario.seed);
  EXPECT_NE(cells[1].scenario.seed, cells[2].scenario.seed);
  EXPECT_EQ(cells[0].repetition, 0);
  EXPECT_EQ(cells[2].repetition, 2);
}

TEST(RuntimeVariant, NameDerivation) {
  EXPECT_EQ(hs::RuntimeVariant{.runtime = hc::RuntimeKind::BareMetal}.name(),
            "bare-metal");
  EXPECT_EQ((hs::RuntimeVariant{.runtime = hc::RuntimeKind::Singularity,
                                .mode = hc::BuildMode::SelfContained}
                 .name()),
            "singularity(self-contained)");
  EXPECT_EQ((hs::RuntimeVariant{.runtime = hc::RuntimeKind::Singularity,
                                .image_arch = hw::CpuArch::Aarch64}
                 .name()),
            "singularity(system-specific)@aarch64");
  EXPECT_EQ((hs::RuntimeVariant{.runtime = hc::RuntimeKind::Docker,
                                .display = "Docker CE"}
                 .name()),
            "Docker CE");
}

TEST(CampaignRunner, RunsEveryCellAndAggregates) {
  const hs::CampaignRunner runner(hs::CampaignOptions{.jobs = 2});
  const auto res = runner.run(small_spec());
  ASSERT_EQ(res.cells.size(), 4u);
  EXPECT_EQ(res.succeeded, 4u);
  EXPECT_EQ(res.failed, 0u);
  EXPECT_EQ(res.jobs, 2);
  for (const auto& cell : res.cells) {
    EXPECT_TRUE(cell.ok) << cell.key << ": " << cell.error;
    EXPECT_GT(cell.result.total_time, 0.0) << cell.key;
  }
  // at() addresses the grid by axis indices.
  const auto& c = res.at(0, 1, 0, 1, 0);
  EXPECT_EQ(c.variant_index, 1u);
  EXPECT_EQ(c.nodes_index, 1u);
  EXPECT_EQ(c.key,
            "Lenox/singularity(system-specific)/artery-cfd/n4/112x1/r0");
}

TEST(CampaignRunner, ResultsAreJobsInvariant) {
  const auto spec = small_spec();
  const auto r1 = hs::CampaignRunner(hs::CampaignOptions{.jobs = 1}).run(spec);
  const auto r4 = hs::CampaignRunner(hs::CampaignOptions{.jobs = 4}).run(spec);
  ASSERT_EQ(r1.cells.size(), r4.cells.size());
  for (std::size_t i = 0; i < r1.cells.size(); ++i) {
    EXPECT_EQ(r1.cells[i].key, r4.cells[i].key);
    EXPECT_EQ(r1.cells[i].scenario.seed, r4.cells[i].scenario.seed);
    EXPECT_EQ(r1.cells[i].result.total_time, r4.cells[i].result.total_time);
    EXPECT_EQ(r1.cells[i].result.avg_step_time,
              r4.cells[i].result.avg_step_time);
  }
  // The strong form of the guarantee: the CSV artifact is byte-identical.
  std::ostringstream csv1, csv4;
  r1.write_csv(csv1);
  r4.write_csv(csv4);
  EXPECT_EQ(csv1.str(), csv4.str());
  // Cache accounting is jobs-invariant too (builds serialize in the cache).
  EXPECT_EQ(r1.image_cache_misses, r4.image_cache_misses);
  EXPECT_EQ(r1.image_cache_hits, r4.image_cache_hits);
}

TEST(CampaignRunner, SummaryJsonIsByteIdenticalAcrossRuns) {
  // The summary carries no host-clock field, so two runs of one spec at
  // the same jobs count write the same bytes, like the CSV.
  const auto spec = small_spec();
  const hs::CampaignRunner runner(hs::CampaignOptions{.jobs = 2});
  std::ostringstream first, second;
  runner.run(spec).write_json(first);
  runner.run(spec).write_json(second);
  ASSERT_EQ(first.str(), second.str());
  EXPECT_EQ(first.str().find("wall_time"), std::string::npos);
}

TEST(CampaignRunner, IsaMismatchFailsTheCellNotTheCampaign) {
  hs::CampaignSpec spec;
  spec.name = "isa-mismatch";
  spec.cluster(hw::presets::lenox())  // x86_64 nodes
      .variant(hc::RuntimeKind::Singularity)
      .variant(hc::RuntimeKind::Singularity,
               hc::BuildMode::SystemSpecific, "foreign",
               hw::CpuArch::Aarch64)  // image built for the wrong ISA
      .steps(2);

  const auto res = hs::CampaignRunner(hs::CampaignOptions{.jobs = 2}).run(spec);
  ASSERT_EQ(res.cells.size(), 2u);
  EXPECT_EQ(res.succeeded, 1u);
  EXPECT_EQ(res.failed, 1u);
  EXPECT_TRUE(res.cells[0].ok);
  EXPECT_FALSE(res.cells[1].ok);
  EXPECT_FALSE(res.cells[1].error.empty());
  // The failed cell still appears in the CSV (status + error columns) and
  // in the JSON failed_cells list.
  std::ostringstream csv, json;
  res.write_csv(csv);
  res.write_json(json);
  EXPECT_NE(csv.str().find("failed"), std::string::npos);
  EXPECT_NE(json.str().find("failed_cells"), std::string::npos);
  EXPECT_NE(json.str().find("foreign"), std::string::npos);
}

TEST(CampaignRunner, ImageCacheBuildsOncePerDistinctImage) {
  hs::CampaignSpec spec;
  spec.cluster(hw::presets::lenox())
      .variant(hc::RuntimeKind::Singularity)
      .nodes({2, 4})
      .reps(2)
      .steps(2);
  // 4 cells, one distinct image: 1 miss, 3 hits — for any jobs count.
  for (int jobs : {1, 3}) {
    const auto res =
        hs::CampaignRunner(hs::CampaignOptions{.jobs = jobs}).run(spec);
    EXPECT_EQ(res.image_cache_misses, 1u) << "jobs=" << jobs;
    EXPECT_EQ(res.image_cache_hits, 3u) << "jobs=" << jobs;
  }
}

TEST(ImageBuildCache, KeysOnArchModeAndFormat) {
  hs::ImageBuildCache cache;
  const auto lenox = hw::presets::lenox();
  const hs::RuntimeVariant sing{.runtime = hc::RuntimeKind::Singularity};
  const hs::RuntimeVariant shifter{.runtime = hc::RuntimeKind::Shifter};

  (void)cache.get(lenox, sing);
  (void)cache.get(lenox, sing);  // hit: same arch/mode/format
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  // Shifter images are OCI-format, not SIF: a distinct artifact.
  (void)cache.get(lenox, shifter);
  EXPECT_EQ(cache.misses(), 2u);

  // A self-contained build is a distinct artifact too.
  (void)cache.get(lenox,
                  hs::RuntimeVariant{.runtime = hc::RuntimeKind::Singularity,
                                     .mode = hc::BuildMode::SelfContained});
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(CampaignResult, SeriesSweepsTheNodeAxisAveragingReps) {
  hs::CampaignSpec spec;
  spec.cluster(hw::presets::lenox())
      .variant(hc::RuntimeKind::BareMetal)
      .nodes({2, 4})
      .reps(2)
      .steps(2);
  const auto res = hs::CampaignRunner().run(spec);
  const auto s = res.series(
      0, 0, 0, [](const hs::RunResult& r) { return r.total_time; });
  ASSERT_EQ(s.x.size(), 2u);
  EXPECT_EQ(s.x[0], "2");
  EXPECT_EQ(s.x[1], "4");
  const double expect0 = (res.at(0, 0, 0, 0, 0, 0, 0).result.total_time +
                          res.at(0, 0, 0, 0, 0, 0, 1).result.total_time) /
                         2.0;
  EXPECT_DOUBLE_EQ(s.y[0], expect0);
}

TEST(CampaignOptions, NegativeJobsRejected) {
  EXPECT_THROW(
      hs::CampaignRunner(hs::CampaignOptions{.jobs = -1}),
      std::invalid_argument);
}

TEST(CliCampaign, CommaListsExpandToCampaignAxes) {
  hs::CliOptions o;
  o.campaign = true;
  o.cluster = "lenox,cte-power";
  o.runtime = "bare-metal,singularity";
  o.mode = "system-specific,self-contained";
  o.nodes_list = {2, 4};
  const auto spec = hs::to_campaign_spec(o);
  ASSERT_EQ(spec.clusters.size(), 2u);
  EXPECT_EQ(spec.clusters[0].name, "Lenox");
  EXPECT_EQ(spec.clusters[1].name, "CTE-POWER");
  // bare-metal ignores the mode axis; singularity expands over both modes.
  ASSERT_EQ(spec.variants.size(), 3u);
  EXPECT_EQ(spec.variants[0].name(), "bare-metal");
  EXPECT_EQ(spec.variants[1].name(), "singularity(system-specific)");
  EXPECT_EQ(spec.variants[2].name(), "singularity(self-contained)");
  EXPECT_EQ(spec.node_counts, (std::vector<int>{2, 4}));
  EXPECT_EQ(spec.size(), 2u * 3u * 1u * 2u);
}

TEST(CliCampaign, NodesListOutsideCampaignIsAnError) {
  hs::CliOptions o;
  o.nodes_list = {2, 4};
  EXPECT_THROW((void)hs::to_scenario(o), std::invalid_argument);
}
