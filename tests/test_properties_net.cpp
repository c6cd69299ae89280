// Property sweeps over every fabric preset: invariants any interconnect
// model must satisfy regardless of its parameters.

#include <gtest/gtest.h>

#include <functional>
#include <ostream>

#include "net/presets.hpp"
#include "sim/units.hpp"

namespace hn = hpcs::net;
namespace np = hpcs::net::presets;
using namespace hpcs::units;

namespace {

struct FabricCase {
  const char* name;
  hn::Fabric (*make)();
};

// Without this gtest prints the raw bytes of both pointers, so every test
// name ("... # GetParam() = ...") would carry address-space-randomised
// addresses and change from one build to the next.
void PrintTo(const FabricCase& c, std::ostream* os) { *os << c.name; }

const FabricCase kFabrics[] = {
    {"ethernet_1g", &np::ethernet_1g_tcp},
    {"ethernet_10g", &np::ethernet_10g_tcp},
    {"ethernet_40g", &np::ethernet_40g_tcp},
    {"omnipath", &np::omnipath_100g},
    {"infiniband_edr", &np::infiniband_edr},
    {"shared_memory", &np::shared_memory},
};

class FabricProperty : public ::testing::TestWithParam<FabricCase> {};

}  // namespace

TEST_P(FabricProperty, TimeMonotoneInBytes) {
  const auto f = GetParam().make();
  double prev = -1.0;
  for (std::uint64_t b = 0; b <= 1u << 24; b = b ? b * 4 : 1) {
    const double t = f.p2p_time(b, 1);
    EXPECT_GE(t, prev) << "bytes=" << b;
    prev = t;
  }
}

TEST_P(FabricProperty, TimeMonotoneInFlows) {
  const auto f = GetParam().make();
  double prev = -1.0;
  for (int flows : {1, 2, 4, 8, 16, 64, 256}) {
    const double t = f.p2p_time(1 << 20, flows);
    EXPECT_GE(t, prev) << "flows=" << flows;
    prev = t;
  }
}

TEST_P(FabricProperty, ZeroBytesIsLatencyBound) {
  const auto f = GetParam().make();
  const double t0 = f.p2p_time(0, 1);
  EXPECT_GE(t0, f.latency());
  EXPECT_LE(t0, f.latency() + 3.0 * f.params().o + 1e-12);
}

TEST_P(FabricProperty, LargeMessageApproachesBandwidth) {
  const auto f = GetParam().make();
  const std::uint64_t bytes = 1u << 30;
  const double t = f.p2p_time(bytes, 1);
  const double ideal = static_cast<double>(bytes) / f.bandwidth();
  EXPECT_GT(t, ideal * 0.999);
  EXPECT_LT(t, ideal * 1.05 + 10.0 * f.latency());
}

TEST_P(FabricProperty, OverlayAlwaysSlower) {
  const auto f = GetParam().make();
  const auto o = f.with_overlay("virt", 10 * us, 2 * us, 0.8, 1 * us);
  for (std::uint64_t b : {0ull, 1024ull, 1048576ull}) {
    for (int flows : {1, 8}) {
      EXPECT_GT(o.p2p_time(b, flows), f.p2p_time(b, flows))
          << "bytes=" << b << " flows=" << flows;
    }
  }
}

TEST_P(FabricProperty, SpeedupNeverFromSharing) {
  // share < 1 must never *reduce* time below the uncontended value.
  const auto f = GetParam().make();
  EXPECT_GE(f.p2p_time(4096, 2), f.p2p_time(4096, 1) - 1e-15);
}

INSTANTIATE_TEST_SUITE_P(AllFabrics, FabricProperty,
                         ::testing::ValuesIn(kFabrics),
                         [](const auto& param_info) {
                           return std::string(param_info.param.name);
                         });
