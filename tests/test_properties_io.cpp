// Property sweeps over (runtime x cluster) for the I/O model.

#include <gtest/gtest.h>

#include <tuple>

#include "container/io_model.hpp"
#include "hw/presets.hpp"

namespace hc = hpcs::container;
namespace hp = hpcs::hw::presets;

namespace {

using Combo = std::tuple<hc::RuntimeKind, int>;

// ctest ids of the AllCombos instances carry gtest's raw-byte print of
// RuntimeKind ("4-byte object <01-00 00-00>"), so pin the values: a
// reordered enum fails to compile here instead of renaming every id.
static_assert(static_cast<int>(hc::RuntimeKind::BareMetal) == 0 &&
              static_cast<int>(hc::RuntimeKind::Docker) == 1 &&
              static_cast<int>(hc::RuntimeKind::Singularity) == 2 &&
              static_cast<int>(hc::RuntimeKind::Shifter) == 3);

hpcs::hw::ClusterSpec cluster_of(int idx) {
  switch (idx) {
    case 0:
      return hp::lenox();
    case 1:
      return hp::marenostrum4();
    default:
      return hp::cte_power();
  }
}

class IoProperty : public ::testing::TestWithParam<Combo> {
 protected:
  hc::IoSimulator sim() const {
    return hc::IoSimulator(hc::PfsModel{}, cluster_of(std::get<1>(GetParam())));
  }
  hc::RuntimeKind runtime() const { return std::get<0>(GetParam()); }
  int nodes() const {
    return std::min(4, cluster_of(std::get<1>(GetParam())).node_count);
  }
  int rpn() const {
    return cluster_of(std::get<1>(GetParam())).node.cpu.cores();
  }
};

std::string combo_name(const ::testing::TestParamInfo<Combo>& pinfo) {
  std::string s = std::string(to_string(std::get<0>(pinfo.param))) + "_" +
                  cluster_of(std::get<1>(pinfo.param)).name;
  for (auto& c : s)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return s;
}

}  // namespace

TEST_P(IoProperty, StormTimePositiveAndFinite) {
  const auto r = sim().startup_storm(runtime(), nodes(), rpn(), 500,
                                     128 * 1024);
  EXPECT_GT(r.time, 0.0);
  EXPECT_LT(r.time, 3600.0);
}

TEST_P(IoProperty, StormMonotoneInFileCount) {
  const auto s = sim();
  EXPECT_LT(s.startup_storm(runtime(), nodes(), rpn(), 100, 1 << 17).time,
            s.startup_storm(runtime(), nodes(), rpn(), 2000, 1 << 17).time);
}

TEST_P(IoProperty, CheckpointMonotoneInBytes) {
  const auto s = sim();
  EXPECT_LT(s.checkpoint_write(runtime(), nodes(), rpn(), 1 << 20).time,
            s.checkpoint_write(runtime(), nodes(), rpn(), 1 << 28).time);
}

TEST_P(IoProperty, BindMountedCheckpointRuntimeAgnostic) {
  // All runtimes write checkpoints to the bind-mounted PFS identically.
  const auto s = sim();
  const auto mine =
      s.checkpoint_write(runtime(), nodes(), rpn(), 1 << 26).time;
  const auto bare =
      s.checkpoint_write(hc::RuntimeKind::BareMetal, nodes(), rpn(),
                         1 << 26)
          .time;
  EXPECT_DOUBLE_EQ(mine, bare);
}

TEST_P(IoProperty, ContainerizedStormNeverSlowerThanBareMetal) {
  if (runtime() == hc::RuntimeKind::BareMetal) GTEST_SKIP();
  const auto s = sim();
  EXPECT_LE(
      s.startup_storm(runtime(), nodes(), rpn(), 2000, 1 << 18).time,
      s.startup_storm(hc::RuntimeKind::BareMetal, nodes(), rpn(), 2000,
                      1 << 18)
          .time);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, IoProperty,
    ::testing::Combine(
        ::testing::Values(hc::RuntimeKind::BareMetal, hc::RuntimeKind::Docker,
                          hc::RuntimeKind::Singularity,
                          hc::RuntimeKind::Shifter),
        ::testing::Values(0, 1, 2)),
    combo_name);
