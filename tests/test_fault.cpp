// The fault-injection and resilience layer: spec validation and presets,
// seed-deterministic fault schedules, retry-with-backoff math, the
// checkpoint/restart replay, deployment-level retries, and the campaign
// integration (fault axis, jobs-invariance, failure taxonomy, bounded
// cell retries).

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "container/deployment.hpp"
#include "core/campaign.hpp"
#include "core/images.hpp"
#include "core/runner.hpp"
#include "fault/resilience.hpp"
#include "fault/schedule.hpp"
#include "fault/spec.hpp"
#include "hw/presets.hpp"

namespace hf = hpcs::fault;
namespace hs = hpcs::study;
namespace hc = hpcs::container;
namespace hw = hpcs::hw;

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- FaultSpec -------------------------------------------------------------

TEST(FaultSpec, DefaultIsDisabledAndValid) {
  const hf::FaultSpec spec;
  EXPECT_FALSE(spec.enabled);
  EXPECT_EQ(spec.label, "fault-free");
  EXPECT_NO_THROW(spec.validate());
}

TEST(FaultSpec, PresetsAreValidAndOrdered) {
  for (const char* name : {"light", "moderate", "heavy"}) {
    const auto spec = hf::FaultSpec::preset(name);
    EXPECT_TRUE(spec.enabled) << name;
    EXPECT_EQ(spec.label, name);
    EXPECT_NO_THROW(spec.validate()) << name;
  }
  EXPECT_FALSE(hf::FaultSpec::preset("none").enabled);
  // Harsher presets mean more frequent crashes and registry errors.
  EXPECT_LT(hf::FaultSpec::heavy().node_mtbf_s,
            hf::FaultSpec::light().node_mtbf_s);
  EXPECT_GT(hf::FaultSpec::heavy().registry_fault_rate,
            hf::FaultSpec::light().registry_fault_rate);
  EXPECT_THROW(hf::FaultSpec::preset("apocalyptic"), std::invalid_argument);
}

TEST(FaultSpec, ValidateRejectsBadEnabledSpecs) {
  auto bad_rate = hf::FaultSpec::light();
  bad_rate.registry_fault_rate = 1.0;  // must stay < 1
  EXPECT_THROW(bad_rate.validate(), std::invalid_argument);

  auto bad_factor = hf::FaultSpec::light();
  bad_factor.straggler_factor = 0.5;  // slowdowns are >= 1
  EXPECT_THROW(bad_factor.validate(), std::invalid_argument);

  auto bad_mtbf = hf::FaultSpec::light();
  bad_mtbf.node_mtbf_s = -1.0;
  EXPECT_THROW(bad_mtbf.validate(), std::invalid_argument);

  auto bad_cap = hf::FaultSpec::light();
  bad_cap.max_crashes = 0;
  EXPECT_THROW(bad_cap.validate(), std::invalid_argument);
}

TEST(FaultSpec, PresetsRoundTripAndNameErrorsAreActionable) {
  // Every preset's label is itself a valid preset name, so a label written
  // to a CSV or CLI flag round-trips back to the same spec.
  for (const char* name : {"light", "moderate", "heavy"}) {
    const auto spec = hf::FaultSpec::preset(name);
    EXPECT_EQ(spec.name(), name);
    EXPECT_EQ(hf::FaultSpec::preset(spec.name()).label, spec.label);
  }
  // The disabled spellings both map to the inert spec.
  EXPECT_FALSE(hf::FaultSpec::preset("none").enabled);
  EXPECT_FALSE(hf::FaultSpec::preset("fault-free").enabled);

  const auto message = [](const std::function<void()>& fn) -> std::string {
    try {
      fn();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  // Error messages name the offender and the valid candidates.
  EXPECT_EQ(message([] { (void)hf::FaultSpec::preset("apocalyptic"); }),
            "unknown fault preset 'apocalyptic' (none | light | moderate | "
            "heavy)");
  auto bad_rate = hf::FaultSpec::light();
  bad_rate.registry_fault_rate = 1.0;
  EXPECT_EQ(message([&] { bad_rate.validate(); }),
            "FaultSpec: registry_fault_rate outside [0,1)");
  auto bad_factor = hf::FaultSpec::light();
  bad_factor.straggler_factor = 0.5;
  EXPECT_EQ(message([&] { bad_factor.validate(); }),
            "FaultSpec: straggler_factor < 1");
  auto bad_label = hf::FaultSpec::light();
  bad_label.label.clear();
  EXPECT_EQ(message([&] { bad_label.validate(); }),
            "FaultSpec: enabled spec needs a label");
}

// --- FaultInjector determinism --------------------------------------------

TEST(FaultInjector, SameSeedSameSchedule) {
  const auto spec = hf::FaultSpec::heavy();
  const hf::FaultInjector a(spec, 7);
  const hf::FaultInjector b(spec, 7);
  const auto sa = a.crash_schedule(10000.0, 8);
  const auto sb = b.crash_schedule(10000.0, 8);
  ASSERT_EQ(sa.events.size(), sb.events.size());
  for (std::size_t i = 0; i < sa.events.size(); ++i) {
    EXPECT_DOUBLE_EQ(sa.events[i].time, sb.events[i].time);
    EXPECT_EQ(sa.events[i].node, sb.events[i].node);
  }
  for (int n = 0; n < 8; ++n) {
    EXPECT_EQ(a.pull_failures(n, 10), b.pull_failures(n, 10));
    EXPECT_DOUBLE_EQ(a.straggler_multiplier(n), b.straggler_multiplier(n));
    EXPECT_DOUBLE_EQ(a.wasted_fraction(n, 0), b.wasted_fraction(n, 0));
  }
  EXPECT_DOUBLE_EQ(a.link_multiplier(), b.link_multiplier());
}

TEST(FaultInjector, DifferentSeedDifferentSchedule) {
  const auto spec = hf::FaultSpec::heavy();
  const auto sa = hf::FaultInjector(spec, 1).crash_schedule(10000.0, 8);
  const auto sb = hf::FaultInjector(spec, 2).crash_schedule(10000.0, 8);
  ASSERT_FALSE(sa.empty());
  ASSERT_FALSE(sb.empty());
  EXPECT_NE(sa.events.front().time, sb.events.front().time);
}

TEST(FaultInjector, DrawsAreStreamedNotSequential) {
  // Querying node 5 before node 2 must not change node 2's draws: every
  // decision comes from a named child stream, not shared generator state.
  const auto spec = hf::FaultSpec::heavy();
  const hf::FaultInjector a(spec, 11);
  const hf::FaultInjector b(spec, 11);
  const int a5 = a.pull_failures(5, 10);
  const int a2 = a.pull_failures(2, 10);
  const int b2 = b.pull_failures(2, 10);
  const int b5 = b.pull_failures(5, 10);
  EXPECT_EQ(a2, b2);
  EXPECT_EQ(a5, b5);
}

TEST(FaultInjector, DisabledSpecIsInert) {
  const hf::FaultInjector inj(hf::FaultSpec{}, 42);
  EXPECT_TRUE(inj.crash_schedule(1e6, 64).empty());
  EXPECT_FALSE(inj.crash_process(64).active());
  EXPECT_EQ(inj.pull_failures(0, 10), 0);
  EXPECT_EQ(inj.staging_failures(10), 0);
  EXPECT_DOUBLE_EQ(inj.straggler_multiplier(0), 1.0);
  EXPECT_DOUBLE_EQ(inj.link_multiplier(), 1.0);
}

TEST(FaultInjector, CrashScheduleRespectsCapAndHorizon) {
  auto spec = hf::FaultSpec::heavy();
  spec.node_mtbf_s = 10.0;  // very crashy
  spec.max_crashes = 5;
  const hf::FaultInjector inj(spec, 3);
  const auto sched = inj.crash_schedule(1e9, 16);
  EXPECT_EQ(sched.events.size(), 5u);
  double prev = 0.0;
  for (const auto& e : sched.events) {
    EXPECT_EQ(e.kind, hf::FaultKind::NodeCrash);
    EXPECT_GE(e.time, prev);
    EXPECT_GE(e.node, 0);
    EXPECT_LT(e.node, 16);
    prev = e.time;
  }
}

// --- RetryPolicy -----------------------------------------------------------

TEST(RetryPolicy, ExponentialBackoffWithCeiling) {
  const hf::RetryPolicy p{.max_attempts = 6,
                          .base_delay_s = 1.0,
                          .multiplier = 2.0,
                          .max_delay_s = 5.0};
  EXPECT_DOUBLE_EQ(p.delay(1), 1.0);
  EXPECT_DOUBLE_EQ(p.delay(2), 2.0);
  EXPECT_DOUBLE_EQ(p.delay(3), 4.0);
  EXPECT_DOUBLE_EQ(p.delay(4), 5.0);  // clamped
  EXPECT_DOUBLE_EQ(p.total_backoff(0), 0.0);
  EXPECT_DOUBLE_EQ(p.total_backoff(3), 1.0 + 2.0 + 4.0);
}

TEST(RetryPolicy, PathologicalPolicySaturatesInsteadOfOverflowing) {
  // 0.5 * 10^9999 overflows a double to inf long before attempt 10000;
  // the clamp must land every delay on the ceiling, never propagate inf
  // or NaN into the backoff sum.
  const hf::RetryPolicy p{.max_attempts = 10000,
                          .base_delay_s = 0.5,
                          .multiplier = 10.0,
                          .max_delay_s = 30.0};
  for (int retry : {1, 2, 3, 400, 5000, 10000}) {
    const double d = p.delay(retry);
    EXPECT_TRUE(std::isfinite(d)) << retry;
    EXPECT_LE(d, 30.0) << retry;
    EXPECT_GE(d, 0.0) << retry;
  }
  EXPECT_DOUBLE_EQ(p.delay(3), 30.0);  // 50.0 raw, clamped exactly
  EXPECT_DOUBLE_EQ(p.delay(10000), 30.0);
  const double total = p.total_backoff(9999);
  EXPECT_TRUE(std::isfinite(total));
  // delay(1) = 0.5, delay(2) = 5, everything after pays the ceiling.
  EXPECT_DOUBLE_EQ(total, 0.5 + 5.0 + 9997.0 * 30.0);
}

TEST(RetryPolicy, Validation) {
  EXPECT_NO_THROW(hf::RetryPolicy{}.validate());
  EXPECT_THROW(hf::RetryPolicy{.max_attempts = 0}.validate(),
               std::invalid_argument);
  EXPECT_THROW(hf::RetryPolicy{.base_delay_s = -1}.validate(),
               std::invalid_argument);
  EXPECT_THROW(hf::RetryPolicy{.multiplier = 0.5}.validate(),
               std::invalid_argument);
}

// --- replay_with_recovery --------------------------------------------------

TEST(Replay, NoCrashesOnlyCheckpointOverhead) {
  const hf::CheckpointPolicy ckpt{.interval_s = 3.0};
  const auto rep = hf::replay_with_recovery(
      10.0, ckpt, [](double) { return 1.0; }, 5.0, [](int) { return kInf; },
      64);
  EXPECT_EQ(rep.crashes, 0);
  EXPECT_EQ(rep.checkpoints, 3);  // after 3, 6, 9 s of work
  EXPECT_DOUBLE_EQ(rep.checkpoint_overhead_s, 3.0);
  EXPECT_DOUBLE_EQ(rep.lost_work_s, 0.0);
  EXPECT_DOUBLE_EQ(rep.downtime_s, 0.0);
  EXPECT_DOUBLE_EQ(rep.effective_time_s, 13.0);
  EXPECT_DOUBLE_EQ(rep.ideal_time_s, 10.0);
  EXPECT_NEAR(rep.overhead_fraction(), 0.3, 1e-12);
}

TEST(Replay, CrashRollsBackToLastCheckpoint) {
  // ideal 100 s, checkpoint every 30 s of work at 2 s each, recovery 10 s,
  // one crash at wall time 50.  Hand-traced: the crash lands 18 s into the
  // second segment (wall 32..62), losing 18 s back to the 30 s checkpoint;
  // the job then needs three more segments and two more checkpoints.
  const hf::CheckpointPolicy ckpt{.interval_s = 30.0};
  std::vector<double> crashes{50.0};
  const auto rep = hf::replay_with_recovery(
      100.0, ckpt, [](double) { return 2.0; }, 10.0,
      [&](int i) {
        return i < static_cast<int>(crashes.size())
                   ? crashes[static_cast<std::size_t>(i)]
                   : kInf;
      },
      64);
  EXPECT_EQ(rep.crashes, 1);
  EXPECT_EQ(rep.restarts, 1);
  EXPECT_EQ(rep.checkpoints, 3);
  EXPECT_DOUBLE_EQ(rep.lost_work_s, 18.0);
  EXPECT_DOUBLE_EQ(rep.downtime_s, 10.0);
  EXPECT_DOUBLE_EQ(rep.checkpoint_overhead_s, 6.0);
  EXPECT_DOUBLE_EQ(rep.effective_time_s, 134.0);
}

TEST(Replay, NoCheckpointingRestartsFromScratch) {
  const hf::CheckpointPolicy ckpt{.interval_s = 0.0};
  std::vector<double> crashes{20.0};
  const auto rep = hf::replay_with_recovery(
      50.0, ckpt, [](double) { return 0.0; }, 5.0,
      [&](int i) {
        return i < 1 ? crashes[static_cast<std::size_t>(i)] : kInf;
      },
      64);
  EXPECT_EQ(rep.crashes, 1);
  EXPECT_EQ(rep.checkpoints, 0);
  EXPECT_DOUBLE_EQ(rep.lost_work_s, 20.0);  // everything done so far
  EXPECT_DOUBLE_EQ(rep.effective_time_s, 75.0);
}

TEST(Replay, CrashesDuringDowntimeAreMasked) {
  // Second crash at 22 lands inside the 20..30 recovery window of the
  // first: the node was not computing, so it must not double-charge.
  const hf::CheckpointPolicy ckpt{.interval_s = 0.0};
  std::vector<double> crashes{20.0, 22.0};
  const auto rep = hf::replay_with_recovery(
      50.0, ckpt, [](double) { return 0.0; }, 10.0,
      [&](int i) {
        return i < static_cast<int>(crashes.size())
                   ? crashes[static_cast<std::size_t>(i)]
                   : kInf;
      },
      64);
  EXPECT_EQ(rep.crashes, 1);
  EXPECT_DOUBLE_EQ(rep.downtime_s, 10.0);
  EXPECT_DOUBLE_EQ(rep.effective_time_s, 80.0);
}

TEST(Replay, ZeroWorkIsFree) {
  const auto rep = hf::replay_with_recovery(
      0.0, hf::CheckpointPolicy{}, [](double) { return 1.0; }, 1.0,
      [](int) { return kInf; }, 64);
  EXPECT_DOUBLE_EQ(rep.effective_time_s, 0.0);
  EXPECT_EQ(rep.checkpoints, 0);
  EXPECT_DOUBLE_EQ(rep.overhead_fraction(), 0.0);
}

// --- deployment integration ------------------------------------------------

namespace {

hs::Scenario docker_scenario(std::uint64_t seed) {
  const auto lenox = hw::presets::lenox();
  hs::Scenario s{.cluster = lenox,
                 .runtime = hc::RuntimeKind::Docker,
                 .app = hs::AppCase::ArteryCfd,
                 .nodes = 4,
                 .ranks = 4 * lenox.node.cpu.cores(),
                 .threads = 1,
                 .time_steps = 2,
                 .seed = seed};
  s.image = hs::alya_image(lenox, hc::RuntimeKind::Docker,
                           hc::BuildMode::SystemSpecific);
  return s;
}

}  // namespace

TEST(DeploymentFaults, RetriesAreDeterministicAndCostTime) {
  const auto lenox = hw::presets::lenox();
  const auto image = hs::alya_image(lenox, hc::RuntimeKind::Docker,
                                    hc::BuildMode::SystemSpecific);
  const auto rt = hc::ContainerRuntime::make(hc::RuntimeKind::Docker);

  hc::DeploymentSimulator clean(lenox, 9);
  const auto base = clean.deploy(*rt, image, 4, 28);
  EXPECT_EQ(base.pull_retries, 0);

  auto spec = hf::FaultSpec::heavy();
  spec.registry_fault_rate = 0.6;  // make retries near-certain on 4 nodes
  hc::DeploymentSimulator faulty1(lenox, 9);
  faulty1.set_faults(spec, hf::RetryPolicy{.max_attempts = 32});
  const auto r1 = faulty1.deploy(*rt, image, 4, 28);
  hc::DeploymentSimulator faulty2(lenox, 9);
  faulty2.set_faults(spec, hf::RetryPolicy{.max_attempts = 32});
  const auto r2 = faulty2.deploy(*rt, image, 4, 28);

  EXPECT_GT(r1.pull_retries, 0);
  EXPECT_GT(r1.retry_backoff_time, 0.0);
  EXPECT_GT(r1.total_time, base.total_time);
  // Byte-reproducible for the same (spec, seed).
  EXPECT_EQ(r1.pull_retries, r2.pull_retries);
  EXPECT_DOUBLE_EQ(r1.total_time, r2.total_time);
  EXPECT_DOUBLE_EQ(r1.retry_backoff_time, r2.retry_backoff_time);
  EXPECT_EQ(r1.bytes_transferred, r2.bytes_transferred);
}

TEST(DeploymentFaults, ExhaustedRetryBudgetThrowsFaultError) {
  const auto lenox = hw::presets::lenox();
  const auto image = hs::alya_image(lenox, hc::RuntimeKind::Docker,
                                    hc::BuildMode::SystemSpecific);
  const auto rt = hc::ContainerRuntime::make(hc::RuntimeKind::Docker);
  auto spec = hf::FaultSpec::heavy();
  spec.registry_fault_rate = 0.99;
  hc::DeploymentSimulator sim(lenox, 1);
  sim.set_faults(spec, hf::RetryPolicy{.max_attempts = 2});
  EXPECT_THROW((void)sim.deploy(*rt, image, 4, 28), hf::FaultError);
}

TEST(DeploymentFaults, RecoveryTimeOrdersDockerAboveSharedFs) {
  const auto lenox = hw::presets::lenox();
  hc::DeploymentSimulator sim(lenox, 1);
  const auto docker_img = hs::alya_image(lenox, hc::RuntimeKind::Docker,
                                         hc::BuildMode::SystemSpecific);
  const auto sing_img = hs::alya_image(lenox, hc::RuntimeKind::Singularity,
                                       hc::BuildMode::SystemSpecific);
  const auto docker = hc::ContainerRuntime::make(hc::RuntimeKind::Docker);
  const auto sing = hc::ContainerRuntime::make(hc::RuntimeKind::Singularity);
  const auto bare = hc::ContainerRuntime::make(hc::RuntimeKind::BareMetal);
  const double d = sim.recovery_time(*docker, &docker_img, 28);
  const double s = sim.recovery_time(*sing, &sing_img, 28);
  EXPECT_DOUBLE_EQ(sim.recovery_time(*bare, nullptr, 28), 0.0);
  EXPECT_GT(s, 0.0);
  // Docker re-pulls the full image into a cold cache; Singularity only
  // pages metadata back in from the shared filesystem.
  EXPECT_GT(d, 10.0 * s);
}

// --- runner integration ----------------------------------------------------

TEST(RunnerFaults, DisabledFaultsAreBitIdenticalToDefault) {
  const auto scenario = docker_scenario(123);
  const auto base = hs::ExperimentRunner().run(scenario);

  hs::RunnerOptions ro;  // fault members default-constructed (disabled)
  const auto same = hs::ExperimentRunner(ro).run(scenario);
  EXPECT_EQ(base.total_time, same.total_time);
  EXPECT_EQ(base.avg_step_time, same.avg_step_time);
  EXPECT_EQ(base.energy_j, same.energy_j);
  EXPECT_EQ(base.deployment.total_time, same.deployment.total_time);
  EXPECT_EQ(base.resilience.crashes, 0);
  EXPECT_EQ(base.resilience.pull_retries, 0);
  EXPECT_EQ(base.resilience.ideal_time_s, base.total_time);
  EXPECT_EQ(base.resilience.effective_time_s, base.total_time);
}

TEST(RunnerFaults, EnabledFaultsAreSeedDeterministic) {
  hs::RunnerOptions ro;
  ro.faults = hf::FaultSpec::heavy();
  ro.faults.node_mtbf_s = 2.0;  // crash pressure >> job length
  ro.checkpoint.interval_s = 2.0;
  const auto scenario = docker_scenario(77);
  const auto a = hs::ExperimentRunner(ro).run(scenario);
  const auto b = hs::ExperimentRunner(ro).run(scenario);
  EXPECT_GT(a.resilience.effective_time_s, a.resilience.ideal_time_s);
  EXPECT_GT(a.resilience.crashes, 0);
  EXPECT_EQ(a.resilience.crashes, b.resilience.crashes);
  EXPECT_EQ(a.resilience.effective_time_s, b.resilience.effective_time_s);
  EXPECT_EQ(a.resilience.downtime_s, b.resilience.downtime_s);
  EXPECT_EQ(a.total_time, b.total_time);
}

TEST(RunnerFaults, StragglerAndLinkMultipliersSlowTheRun) {
  auto spec = hf::FaultSpec{};
  spec.enabled = true;
  spec.label = "slow";
  spec.straggler_prob = 0.999999;  // effectively always
  spec.straggler_factor = 2.0;
  spec.link_degrade_prob = 0.999999;
  spec.link_degrade_factor = 2.0;
  hs::RunnerOptions ro;
  ro.faults = spec;
  ro.checkpoint.interval_s = 0.0;
  const auto scenario = docker_scenario(5);
  const auto base = hs::ExperimentRunner().run(scenario);
  const auto slow = hs::ExperimentRunner(ro).run(scenario);
  EXPECT_DOUBLE_EQ(slow.resilience.straggler_multiplier, 2.0);
  EXPECT_DOUBLE_EQ(slow.resilience.link_multiplier, 2.0);
  EXPECT_NEAR(slow.total_time, 2.0 * base.total_time,
              0.05 * base.total_time);
}

// --- campaign integration --------------------------------------------------

namespace {

hs::CampaignSpec fault_campaign() {
  hs::CampaignSpec spec;
  spec.name = "fault-campaign";
  auto crashy = hf::FaultSpec::heavy();
  crashy.node_mtbf_s = 20.0;  // tiny MTBF: crashes on every cell
  spec.cluster(hw::presets::lenox())
      .variant(hc::RuntimeKind::BareMetal)
      .variant(hc::RuntimeKind::Docker)
      .nodes({2, 4})
      .steps(2)
      .fault(hf::FaultSpec{})
      .fault(crashy);
  return spec;
}

}  // namespace

TEST(CampaignFaults, FaultAxisExpandsWithLabelledKeys) {
  const auto cells = fault_campaign().expand();
  ASSERT_EQ(cells.size(), 8u);  // 2 variants x 2 node counts x 2 faults
  // Disabled spec: no key segment; enabled spec: its label before /r0.
  EXPECT_EQ(cells[0].key, "Lenox/bare-metal/artery-cfd/n2/56x1/r0");
  EXPECT_EQ(cells[1].key, "Lenox/bare-metal/artery-cfd/n2/56x1/heavy/r0");
  EXPECT_EQ(cells[0].fault_index, 0u);
  EXPECT_EQ(cells[1].fault_index, 1u);
  EXPECT_FALSE(cells[0].fault_spec.enabled);
  EXPECT_TRUE(cells[1].fault_spec.enabled);
}

TEST(CampaignFaults, ValidateRejectsDuplicateLabelsAndTwoDisabled) {
  auto dup = fault_campaign();
  dup.fault(hf::FaultSpec::heavy());  // "heavy" label already present
  EXPECT_THROW(dup.validate(), std::invalid_argument);

  hs::CampaignSpec two_disabled;
  two_disabled.cluster(hw::presets::lenox())
      .variant(hc::RuntimeKind::BareMetal)
      .fault(hf::FaultSpec{})
      .fault(hf::FaultSpec::none());
  EXPECT_THROW(two_disabled.validate(), std::invalid_argument);
}

TEST(CampaignFaults, FaultFreeAxisEntryMatchesNoAxisAtAll) {
  // A campaign with only the disabled spec must produce the same keys and
  // seeds as one with no fault axis: the fault-free world is unchanged.
  auto with_axis = fault_campaign();
  with_axis.faults.clear();
  with_axis.fault(hf::FaultSpec{});
  auto without_axis = fault_campaign();
  without_axis.faults.clear();
  const auto a = with_axis.expand();
  const auto b = without_axis.expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].scenario.seed, b[i].scenario.seed);
  }
}

TEST(CampaignFaults, CsvIsByteIdenticalAcrossJobsCounts) {
  const auto spec = fault_campaign();
  const auto r1 = hs::CampaignRunner(hs::CampaignOptions{.jobs = 1}).run(spec);
  const auto r4 = hs::CampaignRunner(hs::CampaignOptions{.jobs = 4}).run(spec);
  std::ostringstream csv1, csv4;
  r1.write_csv(csv1);
  r4.write_csv(csv4);
  EXPECT_EQ(csv1.str(), csv4.str());
  // The faulted cells really did see faults.
  int crashes = 0;
  for (const auto& cell : r1.cells)
    if (cell.ok && cell.fault_spec.enabled)
      crashes += cell.result.resilience.crashes;
  EXPECT_GT(crashes, 0);
}

TEST(CampaignFaults, TaxonomyDistinguishesExecFormatFromFault) {
  hs::CampaignSpec spec;
  spec.name = "taxonomy";
  spec.cluster(hw::presets::lenox())
      .variant(hc::RuntimeKind::Singularity)
      .variant(hc::RuntimeKind::Singularity, hc::BuildMode::SystemSpecific,
               "foreign", hw::CpuArch::Aarch64)
      .steps(2);
  const auto res = hs::CampaignRunner().run(spec);
  ASSERT_EQ(res.cells.size(), 2u);
  EXPECT_EQ(res.cells[0].failure, hs::FailureKind::None);
  EXPECT_EQ(res.cells[1].failure, hs::FailureKind::ExecFormat);
  std::ostringstream csv, json;
  res.write_csv(csv);
  res.write_json(json);
  EXPECT_NE(csv.str().find("exec-format"), std::string::npos);
  EXPECT_NE(json.str().find("\"category\": \"exec-format\""),
            std::string::npos);
}

TEST(CampaignFaults, FaultFailuresGetBoundedRetries) {
  // A registry so broken the retry budget always exhausts: the cell fails
  // with category "fault" and consumed its cell-level retries.
  hs::CampaignSpec spec;
  spec.name = "retry";
  auto broken = hf::FaultSpec::heavy();
  broken.registry_fault_rate = 0.999;
  spec.cluster(hw::presets::lenox())
      .variant(hc::RuntimeKind::Docker)
      .steps(2)
      .fault(broken);
  hs::CampaignOptions opts;
  opts.runner.retry.max_attempts = 2;
  opts.cell_retries = 2;
  const auto res = hs::CampaignRunner(opts).run(spec);
  ASSERT_EQ(res.cells.size(), 1u);
  EXPECT_FALSE(res.cells[0].ok);
  EXPECT_EQ(res.cells[0].failure, hs::FailureKind::Fault);
  EXPECT_EQ(res.cells[0].attempts, 3);  // 1 + cell_retries
}

TEST(FailureKind, ClassifyAndToString) {
  EXPECT_EQ(hs::classify_failure(hf::FaultError("x")),
            hs::FailureKind::Fault);
  EXPECT_EQ(hs::classify_failure(std::invalid_argument("x")),
            hs::FailureKind::Config);
  EXPECT_EQ(hs::classify_failure(std::runtime_error("x")),
            hs::FailureKind::Internal);
  EXPECT_STREQ(hs::to_string(hs::FailureKind::RuntimeUnavailable),
               "runtime-unavailable");
}
