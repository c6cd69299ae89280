// Invariant harness for the batch scheduler (src/sched): property-based
// checks over randomized job streams (no node oversubscription at any
// event time, job conservation, backfill-reservation soundness, FIFO
// fairness), deterministic unit scenarios for backfill windows and
// walltime kills, the cross-layer contention regression (a container
// pull storm must measurably delay bare-metal job starts vs the
// gateway-disabled control), and the --jobs byte-invariance +
// golden-CSV gates on the bench_sched grid.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "fault/hazard.hpp"
#include "fault/schedule.hpp"
#include "fault/spec.hpp"
#include "gateway/workload.hpp"
#include "obs/collector.hpp"
#include "sched/nodes.hpp"
#include "sched/policy.hpp"
#include "sched/scheduler.hpp"
#include "sched/study.hpp"
#include "sched/workload.hpp"
#include "sim/rng.hpp"

#include "golden.hpp"

namespace hs = hpcs::sched;
namespace hg = hpcs::gateway;
namespace hf = hpcs::fault;
namespace hc = hpcs::container;
namespace ho = hpcs::obs;
using hpcs::test_support::expect_matches_golden;

namespace {

hg::WorkloadSpec catalog_spec(int images, std::uint64_t bytes_min,
                              std::uint64_t bytes_max) {
  hg::WorkloadSpec spec;
  spec.catalog_images = images;
  spec.image_bytes_min = bytes_min;
  spec.image_bytes_max = bytes_max;
  return spec;
}

hs::JobSpec make_job(int id, double submit, int nodes, double compute,
                     hc::RuntimeKind runtime = hc::RuntimeKind::BareMetal,
                     int image = 0, double walltime = -1.0,
                     int priority = 0, int cores = 48) {
  hs::JobSpec job;
  job.id = id;
  job.submit_s = submit;
  job.nodes = nodes;
  job.cores_per_node = cores;
  job.compute_s = compute;
  job.runtime = runtime;
  job.image = image;
  job.walltime_s = walltime > 0.0 ? walltime : 3.0 * compute + 1800.0;
  job.priority = priority;
  return job;
}

hs::SchedResult run_jobs(hs::SchedConfig config,
                         std::vector<hs::JobSpec> jobs,
                         const hg::ImageCatalog& catalog,
                         hf::FaultSpec faults = {},
                         hf::HazardSchedule hazards = {},
                         ho::Collector* collector = nullptr) {
  hf::FaultInjector injector(std::move(faults), 7);
  hs::BatchScheduler scheduler(std::move(config), std::move(jobs), catalog,
                               std::move(injector), std::move(hazards),
                               collector);
  return scheduler.run();
}

/// Randomized end-to-end run: generated job stream under (policy, mix,
/// load, seed), default cluster.
hs::SchedResult random_run(const std::string& policy,
                           const std::string& mix, double load,
                           std::uint64_t seed, int njobs = 200,
                           hf::FaultSpec faults = {},
                           int priority_levels = 3) {
  hs::SchedWorkloadSpec workload;
  workload.jobs = njobs;
  workload.load = load;
  workload.mix = mix;
  workload.priority_levels = priority_levels;
  hs::SchedConfig config;
  config.policy = hs::SchedPolicy::preset(policy);
  const hpcs::sim::Rng root{seed};
  const hg::ImageCatalog catalog(workload.catalog_spec(), root);
  std::vector<hs::JobSpec> jobs = hs::generate_jobs(workload, root);
  return run_jobs(std::move(config), std::move(jobs), catalog,
                  std::move(faults));
}

/// Rebuilds per-node core occupancy from the allocation intervals and
/// asserts capacity is respected at every event time.  Releases apply
/// before acquisitions at equal times (the scheduler frees nodes and
/// restarts the queue within the same simulated instant).
void expect_no_oversubscription(const hs::SchedResult& result) {
  struct Edge {
    double time = 0.0;
    int delta = 0;
  };
  std::map<int, std::vector<Edge>> per_node;
  for (const hs::AllocationInterval& interval : result.allocations) {
    ASSERT_GE(interval.end, interval.start) << "open interval in result";
    ASSERT_GE(interval.cores_per_node, 1);
    for (const int node : interval.nodes) {
      ASSERT_GE(node, 0);
      ASSERT_LT(node, result.config.nodes);
      per_node[node].push_back({interval.start, interval.cores_per_node});
      per_node[node].push_back({interval.end, -interval.cores_per_node});
    }
  }
  for (auto& [node, edges] : per_node) {
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      if (a.time != b.time) return a.time < b.time;
      return a.delta < b.delta;  // releases first at equal times
    });
    int used = 0;
    for (const Edge& edge : edges) {
      used += edge.delta;
      ASSERT_LE(used, result.config.cores_per_node)
          << "node " << node << " oversubscribed at t=" << edge.time;
      ASSERT_GE(used, 0) << "node " << node << " double-released";
    }
    EXPECT_EQ(used, 0) << "node " << node << " never fully released";
  }
}

void expect_conservation(const hs::SchedResult& result) {
  std::uint64_t completed = 0, failed = 0, shed = 0;
  for (const hs::JobRecord& job : result.jobs) {
    switch (job.state) {
      case hs::JobState::Completed: ++completed; break;
      case hs::JobState::Failed: ++failed; break;
      case hs::JobState::Shed: ++shed; break;
      default:
        FAIL() << "job " << job.spec.id << " ended non-terminal: "
               << hs::to_string(job.state);
    }
    EXPECT_GE(job.end_s, 0.0);
  }
  EXPECT_EQ(result.stats.submitted, result.jobs.size());
  EXPECT_EQ(completed, result.stats.completed);
  EXPECT_EQ(failed, result.stats.failed);
  EXPECT_EQ(shed, result.stats.shed);
  EXPECT_EQ(completed + failed + shed, result.jobs.size())
      << "submitted != completed + failed + shed";
}

// ---------------------------------------------------------------- NodePool

TEST(NodePool, DedicatedAllocationOccupiesWholeNodes) {
  hs::NodePool pool(4, 48);
  EXPECT_EQ(pool.total_cores(), 192);
  const auto nodes = pool.allocate(2, 12, hs::AllocMode::Dedicated);
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0], 0);
  EXPECT_EQ(nodes[1], 1);
  // Dedicated jobs own the whole node even when asking for 12 cores.
  EXPECT_EQ(pool.free_cores(0), 0);
  EXPECT_EQ(pool.free_cores(1), 0);
  EXPECT_EQ(pool.free_cores(), 96);
  EXPECT_FALSE(pool.fits(3, 1, hs::AllocMode::Dedicated));
  pool.release(nodes, 12, hs::AllocMode::Dedicated);
  EXPECT_EQ(pool.free_cores(), 192);
}

TEST(NodePool, NodeSharePacksJobsOntoOneNode) {
  hs::NodePool pool(1, 48);
  const auto a = pool.allocate(1, 24, hs::AllocMode::NodeShare);
  const auto b = pool.allocate(1, 24, hs::AllocMode::NodeShare);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(pool.free_cores(0), 0);
  EXPECT_TRUE(pool.allocate(1, 1, hs::AllocMode::NodeShare).empty());
  pool.release(a, 24, hs::AllocMode::NodeShare);
  EXPECT_EQ(pool.free_cores(0), 24);
}

TEST(NodePool, ReleaseOverflowThrows) {
  hs::NodePool pool(2, 48);
  const auto nodes = pool.allocate(1, 16, hs::AllocMode::NodeShare);
  pool.release(nodes, 16, hs::AllocMode::NodeShare);
  EXPECT_THROW(pool.release(nodes, 16, hs::AllocMode::NodeShare),
               std::logic_error);
}

TEST(NodePool, RejectsMalformedRequests) {
  EXPECT_THROW(hs::NodePool(0, 48), std::invalid_argument);
  EXPECT_THROW(hs::NodePool(4, 0), std::invalid_argument);
  hs::NodePool pool(4, 48);
  EXPECT_THROW(pool.fits(0, 1, hs::AllocMode::Dedicated),
               std::invalid_argument);
  EXPECT_THROW(pool.allocate(1, 49, hs::AllocMode::NodeShare),
               std::invalid_argument);
}

TEST(NodePool, AllocationPrefersLowestIndices) {
  hs::NodePool pool(4, 48);
  const auto a = pool.allocate(1, 48, hs::AllocMode::Dedicated);
  const auto b = pool.allocate(1, 48, hs::AllocMode::Dedicated);
  pool.release(a, 48, hs::AllocMode::Dedicated);
  // Node 0 freed: the next allocation must reuse it, not advance.
  const auto c = pool.allocate(1, 48, hs::AllocMode::Dedicated);
  EXPECT_EQ(b[0], 1);
  EXPECT_EQ(c[0], 0);
}

// fits() reads a free-core histogram; it must agree with a brute-force scan
// of free_cores(n) after any allocate/release sequence, and allocate() must
// succeed exactly when fits() said so.
TEST(NodePool, FitsMatchesBruteForceScanUnderRandomChurn) {
  constexpr int kNodes = 8;
  constexpr int kCores = 6;
  for (const hs::AllocMode mode :
       {hs::AllocMode::Dedicated, hs::AllocMode::NodeShare}) {
    for (const std::uint64_t seed : {1ull, 7ull, 104729ull}) {
      SCOPED_TRACE(::testing::Message()
                   << "mode=" << static_cast<int>(mode) << " seed=" << seed);
      hpcs::sim::Rng rng(seed);
      hs::NodePool pool(kNodes, kCores);
      const auto brute_fits = [&](int nodes_wanted, int cores_wanted) {
        const int gate =
            mode == hs::AllocMode::Dedicated ? kCores : cores_wanted;
        int found = 0;
        for (int n = 0; n < kNodes; ++n)
          if (pool.free_cores(n) >= gate) ++found;
        return found >= nodes_wanted;
      };
      struct Held {
        std::vector<int> nodes;
        int cores = 0;
      };
      std::vector<Held> held;
      for (int step = 0; step < 2000; ++step) {
        const int nodes_wanted =
            static_cast<int>(rng.uniform_int(1, kNodes));
        const int cores_wanted =
            static_cast<int>(rng.uniform_int(1, kCores));
        const bool expect = brute_fits(nodes_wanted, cores_wanted);
        ASSERT_EQ(pool.fits(nodes_wanted, cores_wanted, mode), expect)
            << "step " << step;
        if (!held.empty() && rng.uniform() < 0.45) {
          const auto pick = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(held.size()) - 1));
          pool.release(held[pick].nodes, held[pick].cores, mode);
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
          continue;
        }
        std::vector<int> nodes =
            pool.allocate(nodes_wanted, cores_wanted, mode);
        ASSERT_EQ(!nodes.empty(), expect) << "step " << step;
        if (!nodes.empty()) held.push_back({std::move(nodes), cores_wanted});
      }
    }
  }
}

// ------------------------------------------------------- policy / workload

TEST(SchedPolicy, PresetsRoundTrip) {
  const hs::SchedPolicy p = hs::SchedPolicy::preset("fifo-share");
  EXPECT_EQ(p.queue, hs::QueueDiscipline::Fifo);
  EXPECT_EQ(p.alloc, hs::AllocMode::NodeShare);
  EXPECT_EQ(hs::SchedPolicy::preset("backfill-dedicated").queue,
            hs::QueueDiscipline::Backfill);
  EXPECT_THROW(hs::SchedPolicy::preset("sjf"), std::invalid_argument);
}

TEST(RuntimeMixTest, PresetsValidateAndUnknownThrows) {
  for (const char* name :
       {"bare-metal", "mixed", "container-heavy", "docker-heavy"})
    EXPECT_NO_THROW(hs::RuntimeMix::preset(name).validate()) << name;
  EXPECT_THROW(hs::RuntimeMix::preset("podman"), std::invalid_argument);
  const hs::RuntimeMix bare = hs::RuntimeMix::preset("bare-metal");
  ASSERT_EQ(bare.weights.size(), 1u);
  EXPECT_EQ(bare.weights[0].first, hc::RuntimeKind::BareMetal);
}

TEST(SchedWorkload, GenerateJobsIsDeterministicPerSeed) {
  hs::SchedWorkloadSpec spec;
  spec.jobs = 64;
  const auto a = hs::generate_jobs(spec, hpcs::sim::Rng(11));
  const auto b = hs::generate_jobs(spec, hpcs::sim::Rng(11));
  const auto c = hs::generate_jobs(spec, hpcs::sim::Rng(12));
  ASSERT_EQ(a.size(), b.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].submit_s, b[i].submit_s);
    EXPECT_EQ(a[i].nodes, b[i].nodes);
    EXPECT_EQ(a[i].runtime, b[i].runtime);
    EXPECT_EQ(a[i].image, b[i].image);
    EXPECT_EQ(a[i].compute_s, b[i].compute_s);
    any_diff = any_diff || a[i].submit_s != c[i].submit_s;
  }
  EXPECT_TRUE(any_diff) << "different seeds produced identical streams";
}

TEST(SchedWorkload, GeneratedJobsRespectSpecBounds) {
  hs::SchedWorkloadSpec spec;
  spec.jobs = 200;
  spec.nodes_min = 2;
  spec.nodes_max = 16;
  const auto jobs = hs::generate_jobs(spec, hpcs::sim::Rng(3));
  double prev_submit = 0.0;
  for (const hs::JobSpec& job : jobs) {
    EXPECT_GE(job.submit_s, prev_submit);
    prev_submit = job.submit_s;
    EXPECT_GE(job.nodes, 2);
    EXPECT_LE(job.nodes, 16);
    EXPECT_GE(job.compute_s, spec.compute_s_min);
    EXPECT_LE(job.compute_s, spec.compute_s_max);
    EXPECT_GE(job.priority, 0);
    EXPECT_LT(job.priority, spec.priority_levels);
    EXPECT_DOUBLE_EQ(job.walltime_s,
                     spec.walltime_margin * job.compute_s +
                         spec.walltime_deploy_allowance_s);
    EXPECT_GE(job.image, 0);
    EXPECT_LT(job.image, spec.catalog_images);
  }
}

TEST(SchedWorkload, BareMetalMixNeverDrawsContainers) {
  hs::SchedWorkloadSpec spec;
  spec.jobs = 100;
  spec.mix = "bare-metal";
  for (const hs::JobSpec& job : hs::generate_jobs(spec, hpcs::sim::Rng(5)))
    EXPECT_EQ(job.runtime, hc::RuntimeKind::BareMetal);
}

TEST(SchedWorkload, ValidateRejectsBadSpecs) {
  hs::SchedWorkloadSpec spec;
  spec.jobs = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.walltime_margin = 0.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.mix = "no-such-mix";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(SchedConfigTest, ValidateRejectsBadConfigs) {
  hs::SchedConfig config;
  config.nodes = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.fabric_penalty = -0.1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.queue_capacity = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

// ----------------------------------------------------- property invariants

TEST(SchedInvariants, NoOversubscriptionAcrossPoliciesAndSeeds) {
  for (const char* policy :
       {"fifo-dedicated", "backfill-dedicated", "backfill-share"})
    for (const std::uint64_t seed : {101u, 202u}) {
      const auto result = random_run(policy, "mixed", 2.0, seed, 150);
      expect_no_oversubscription(result);
    }
}

TEST(SchedInvariants, JobConservationAcrossPoliciesAndSeeds) {
  for (const char* policy :
       {"fifo-dedicated", "fifo-share", "backfill-dedicated",
        "backfill-share"})
    for (const std::uint64_t seed : {7u, 77u}) {
      const auto result = random_run(policy, "container-heavy", 1.5, seed,
                                     150);
      expect_conservation(result);
    }
}

TEST(SchedInvariants, ConservationHoldsUnderCrashFaults) {
  hf::FaultSpec faults;
  faults.enabled = true;
  faults.label = "crashy";
  faults.node_mtbf_s = 3000.0;  // several crashes over ~1.7ks mean jobs
  const auto result =
      random_run("backfill-dedicated", "mixed", 1.0, 31, 150, faults);
  expect_conservation(result);
  expect_no_oversubscription(result);
  EXPECT_GT(result.stats.crashes, 0u) << "fault axis never engaged";
  EXPECT_GT(result.stats.requeues, 0u);
  EXPECT_GT(result.stats.completed, 0u);
}

TEST(SchedInvariants, BackfillNeverDelaysHeadPastReservation) {
  for (const std::uint64_t seed : {13u, 14u, 15u}) {
    const auto result =
        random_run("backfill-dedicated", "mixed", 2.5, seed, 150);
    int checked = 0;
    for (const hs::JobRecord& job : result.jobs) {
      if (job.reservation_s < 0.0 || job.reservation_superseded ||
          job.requeues > 0 || job.first_start_s < 0.0)
        continue;
      ++checked;
      EXPECT_LE(job.first_start_s, job.reservation_s + 1e-9)
          << "job " << job.spec.id << " started after its reservation";
    }
    EXPECT_GT(checked, 0) << "no head job ever blocked (load too low?)";
  }
}

TEST(SchedInvariants, FifoStartsEqualPriorityJobsInSubmitOrder) {
  const auto result = random_run("fifo-dedicated", "bare-metal", 2.0, 23,
                                 150, {}, /*priority_levels=*/1);
  expect_conservation(result);
  double prev_start = -1.0;
  for (const hs::JobRecord& job : result.jobs) {  // submit-ordered stream
    if (job.first_start_s < 0.0) continue;
    EXPECT_GE(job.first_start_s, prev_start)
        << "job " << job.spec.id << " started before an earlier submit";
    prev_start = job.first_start_s;
  }
}

TEST(SchedInvariants, UtilizationStaysWithinBounds) {
  for (const char* policy : {"fifo-dedicated", "backfill-share"}) {
    const auto result = random_run(policy, "mixed", 1.0, 47, 120);
    EXPECT_GE(result.stats.utilization, 0.0);
    EXPECT_LE(result.stats.utilization, 1.0 + 1e-9);
    EXPECT_GT(result.stats.busy_core_s, 0.0);
    EXPECT_GT(result.stats.makespan_s, 0.0);
  }
}

TEST(SchedInvariants, BackfillBeatsFifoOnWaitAndEngages) {
  const auto fifo = random_run("fifo-dedicated", "mixed", 2.0, 91, 150);
  const auto backfill =
      random_run("backfill-dedicated", "mixed", 2.0, 91, 150);
  EXPECT_EQ(fifo.stats.backfill_starts, 0u);
  EXPECT_GT(backfill.stats.backfill_starts, 0u)
      << "backfill never engaged at load 2";
  ASSERT_FALSE(fifo.stats.queue_wait_s.empty());
  ASSERT_FALSE(backfill.stats.queue_wait_s.empty());
  EXPECT_LT(backfill.stats.queue_wait_s.mean(),
            fifo.stats.queue_wait_s.mean())
      << "conservative backfill should cut mean queue wait vs FIFO";
}

// ------------------------------------------------- deterministic scenarios

TEST(SchedScenario, HeadReservationIsWalltimeBoundOfBlocker) {
  const hg::ImageCatalog catalog(catalog_spec(2, 1u << 20, 1u << 20),
                                 hpcs::sim::Rng(1));
  hs::SchedConfig config;
  config.nodes = 1;
  config.policy = hs::SchedPolicy::preset("backfill-dedicated");
  std::vector<hs::JobSpec> jobs = {
      make_job(0, 0.0, 1, 100.0, hc::RuntimeKind::BareMetal, 0, 200.0),
      make_job(1, 1.0, 1, 50.0, hc::RuntimeKind::BareMetal, 0, 100.0)};
  const auto result = run_jobs(config, jobs, catalog);
  // Job 1 blocks at t=1; job 0's sound release bound is 0 + 200.
  EXPECT_DOUBLE_EQ(result.jobs[1].reservation_s, 200.0);
  // Job 0 actually completes at 100, so job 1 starts then — well before
  // the reservation, never after it.
  EXPECT_DOUBLE_EQ(result.jobs[1].first_start_s, 100.0);
}

TEST(SchedScenario, BackfillStartsOnlyJobsThatVacateBeforeReservation) {
  const hg::ImageCatalog catalog(catalog_spec(2, 1u << 20, 1u << 20),
                                 hpcs::sim::Rng(1));
  hs::SchedConfig config;
  config.nodes = 2;
  config.policy = hs::SchedPolicy::preset("backfill-dedicated");
  std::vector<hs::JobSpec> jobs = {
      // Blocker on node 0 until walltime bound 110 (completes at 100).
      make_job(0, 0.0, 1, 100.0, hc::RuntimeKind::BareMetal, 0, 110.0),
      // Head: wants both nodes -> blocked, reservation 110.
      make_job(1, 1.0, 2, 50.0, hc::RuntimeKind::BareMetal, 0, 100.0),
      // Fits the free node and vacates by 2 + 50 <= 110: backfills.
      make_job(2, 2.0, 1, 30.0, hc::RuntimeKind::BareMetal, 0, 50.0),
      // Fits but 3 + 200 > 110: must NOT backfill past the head.
      make_job(3, 3.0, 1, 30.0, hc::RuntimeKind::BareMetal, 0, 200.0)};
  const auto result = run_jobs(config, jobs, catalog);
  EXPECT_DOUBLE_EQ(result.jobs[1].reservation_s, 110.0);
  EXPECT_TRUE(result.jobs[2].backfilled);
  EXPECT_DOUBLE_EQ(result.jobs[2].first_start_s, 2.0);
  EXPECT_FALSE(result.jobs[3].backfilled);
  // Job 3 waits for the head: head starts at 100 (actual completion),
  // job 3 only after the head releases at 150.
  EXPECT_DOUBLE_EQ(result.jobs[1].first_start_s, 100.0);
  EXPECT_DOUBLE_EQ(result.jobs[3].first_start_s, 150.0);
  expect_no_oversubscription(result);
}

TEST(SchedScenario, WalltimeKillsJobStuckInDeploy) {
  const hg::ImageCatalog catalog(
      catalog_spec(1, 2ull << 30, 2ull << 30), hpcs::sim::Rng(1));
  hs::SchedConfig config;
  config.nodes = 2;
  // 2 GiB over the 0.25 GB/s uplink needs ~8.6 s; walltime 5 s kills the
  // job mid-deploy.
  std::vector<hs::JobSpec> jobs = {
      make_job(0, 0.0, 1, 1000.0, hc::RuntimeKind::Docker, 0, 5.0),
      // A second job proves the killed job's node came back.
      make_job(1, 1.0, 2, 10.0, hc::RuntimeKind::BareMetal, 0, 100.0)};
  const auto result = run_jobs(config, jobs, catalog);
  EXPECT_EQ(result.jobs[0].state, hs::JobState::Failed);
  EXPECT_TRUE(result.jobs[0].timed_out);
  EXPECT_DOUBLE_EQ(result.jobs[0].end_s, 5.0);
  EXPECT_EQ(result.stats.timeouts, 1u);
  EXPECT_EQ(result.jobs[1].state, hs::JobState::Completed);
  EXPECT_DOUBLE_EQ(result.jobs[1].first_start_s, 5.0);
  expect_conservation(result);
}

TEST(SchedScenario, QueueCapacityShedsAndImpossibleJobsShedInstantly) {
  const hg::ImageCatalog catalog(catalog_spec(2, 1u << 20, 1u << 20),
                                 hpcs::sim::Rng(1));
  hs::SchedConfig config;
  config.nodes = 1;
  config.queue_capacity = 2;
  std::vector<hs::JobSpec> jobs;
  for (int i = 0; i < 6; ++i)
    jobs.push_back(make_job(i, 0.0, 1, 100.0));
  // Wider than the cluster: shed on arrival regardless of queue depth.
  jobs.push_back(make_job(6, 0.5, 4, 100.0));
  const auto result = run_jobs(config, jobs, catalog);
  expect_conservation(result);
  EXPECT_EQ(result.jobs[6].state, hs::JobState::Shed);
  // Job 0 starts immediately; jobs 1-2 queue; 3-5 overflow the capacity.
  EXPECT_EQ(result.stats.shed, 4u);
  EXPECT_EQ(result.stats.completed, 3u);
}

TEST(SchedScenario, RackBurstRequeuesVictimsWhoThenComplete) {
  const hg::ImageCatalog catalog(catalog_spec(2, 1u << 20, 1u << 20),
                                 hpcs::sim::Rng(1));
  hs::SchedConfig config;
  config.nodes = 8;
  hf::HazardSchedule hazards;
  hazards.bursts.push_back(hf::RackBurst{500.0, 0, 4});
  std::vector<hs::JobSpec> jobs;
  for (int i = 0; i < 8; ++i)
    jobs.push_back(make_job(i, 0.0, 1, 1000.0));
  const auto result = run_jobs(config, jobs, catalog, {}, hazards);
  expect_conservation(result);
  expect_no_oversubscription(result);
  // Nodes 0-3 die at t=500: exactly those four jobs requeue and rerun.
  EXPECT_EQ(result.stats.crashes, 4u);
  EXPECT_EQ(result.stats.requeues, 4u);
  EXPECT_EQ(result.stats.completed, 8u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(result.jobs[static_cast<std::size_t>(i)].requeues, 1);
    EXPECT_GT(result.jobs[static_cast<std::size_t>(i)].end_s, 1500.0);
  }
}

// ------------------------------------------------------ deploy mechanisms

// Scheduled events capture `this`: the scheduler must stay put.
static_assert(!std::is_copy_constructible_v<hs::BatchScheduler>);
static_assert(!std::is_move_constructible_v<hs::BatchScheduler>);
static_assert(!std::is_move_assignable_v<hs::BatchScheduler>);

TEST(SchedDeploy, BareMetalJobsDeployInstantly) {
  const auto result = random_run("fifo-dedicated", "bare-metal", 1.0, 9, 80);
  ASSERT_FALSE(result.stats.deploy_s.empty());
  EXPECT_EQ(result.stats.deploy_s.max(), 0.0);
  EXPECT_EQ(result.stats.deploy.deploys, 0u);
  EXPECT_EQ(result.stats.deploy.upstream_fetches, 0u);
}

TEST(SchedDeploy, PullStormCoalescesThroughSingleFlight) {
  const hg::ImageCatalog catalog(
      catalog_spec(1, 1ull << 30, 1ull << 30), hpcs::sim::Rng(1));
  hs::SchedConfig config;
  config.nodes = 16;
  std::vector<hs::JobSpec> jobs;
  for (int i = 0; i < 8; ++i)
    jobs.push_back(
        make_job(i, 0.0, 1, 100.0, hc::RuntimeKind::Singularity, 0));
  const auto result = run_jobs(config, jobs, catalog);
  expect_conservation(result);
  EXPECT_EQ(result.stats.completed, 8u);
  // One leader fetch + one conversion serve the whole storm.
  EXPECT_EQ(result.stats.deploy.upstream_fetches, 1u);
  EXPECT_EQ(result.stats.deploy.conversions, 1u);
  EXPECT_EQ(result.stats.deploy.coalesced, 7u);
  EXPECT_EQ(result.stats.deploy.cache.misses, 8u);
}

TEST(SchedDeploy, WarmCacheServesRepeatWaveWithoutRefetching) {
  const hg::ImageCatalog catalog(
      catalog_spec(1, 1ull << 30, 1ull << 30), hpcs::sim::Rng(1));
  hs::SchedConfig config;
  config.nodes = 16;
  std::vector<hs::JobSpec> jobs;
  for (int i = 0; i < 4; ++i)
    jobs.push_back(
        make_job(i, 0.0, 1, 100.0, hc::RuntimeKind::Singularity, 0));
  for (int i = 4; i < 8; ++i)
    jobs.push_back(
        make_job(i, 50000.0, 1, 100.0, hc::RuntimeKind::Singularity, 0));
  const auto result = run_jobs(config, jobs, catalog);
  EXPECT_EQ(result.stats.deploy.upstream_fetches, 1u);
  EXPECT_EQ(result.stats.deploy.cache.misses, 4u);
  EXPECT_EQ(result.stats.deploy.cache.local_hits +
                result.stats.deploy.cache.shared_hits,
            4u)
      << "second wave should be served from the tiered cache";
}

TEST(SchedDeploy, BrownoutStretchesContainerDeploys) {
  const hg::ImageCatalog catalog(
      catalog_spec(1, 1ull << 30, 1ull << 30), hpcs::sim::Rng(1));
  hs::SchedConfig config;
  config.nodes = 2;
  std::vector<hs::JobSpec> jobs = {
      make_job(0, 0.0, 1, 100.0, hc::RuntimeKind::Shifter, 0)};
  const auto clean = run_jobs(config, jobs, catalog);
  hf::HazardSchedule hazards;
  hazards.brownouts.push_back(hf::HazardWindow{0.0, 100000.0, 4.0, 0.0});
  const auto browned = run_jobs(config, jobs, catalog, {}, hazards);
  ASSERT_FALSE(clean.stats.deploy_s.empty());
  ASSERT_FALSE(browned.stats.deploy_s.empty());
  EXPECT_GT(browned.stats.deploy_s.max(), clean.stats.deploy_s.max())
      << "a 4x shared-FS brownout must slow the conversion + page-in";
}

// ---------------------------------------- cross-layer contention regression

/// The PR's mechanism-engagement gate: with the gateway enabled, a pull
/// storm of container jobs must *measurably* delay bare-metal jobs'
/// starts vs the gateway-disabled control — deploys hold nodes longer
/// and the queue backs up across runtime boundaries.  Distinct images
/// defeat single-flight coalescing so processor-sharing contention
/// dominates.
TEST(SchedContention, PullStormDelaysBareMetalJobStarts) {
  const hg::ImageCatalog catalog(
      catalog_spec(64, 2ull << 30, 2ull << 30), hpcs::sim::Rng(1));
  std::vector<hs::JobSpec> jobs;
  int id = 0;
  for (int i = 0; i < 48; ++i)
    jobs.push_back(make_job(id++, 0.1 * i, 1, 300.0,
                            hc::RuntimeKind::Docker, i % 64));
  for (int i = 0; i < 16; ++i)
    jobs.push_back(make_job(id++, 10.0 + 0.1 * i, 1, 300.0));
  std::sort(jobs.begin(), jobs.end(),
            [](const hs::JobSpec& a, const hs::JobSpec& b) {
              return a.submit_s < b.submit_s;
            });
  for (std::size_t i = 0; i < jobs.size(); ++i)
    jobs[i].id = static_cast<int>(i);

  hs::SchedConfig config;
  config.nodes = 16;
  const auto bare_metal_mean_start = [](const hs::SchedResult& result) {
    double sum = 0.0;
    int n = 0;
    for (const hs::JobRecord& job : result.jobs) {
      if (job.spec.runtime != hc::RuntimeKind::BareMetal) continue;
      if (job.first_start_s < 0.0) continue;
      sum += job.first_start_s - job.spec.submit_s;
      ++n;
    }
    return n ? sum / n : 0.0;
  };

  hs::SchedConfig contended = config;
  contended.gateway_enabled = true;
  const auto storm = run_jobs(contended, jobs, catalog);
  hs::SchedConfig control = config;
  control.gateway_enabled = false;
  const auto quiet = run_jobs(control, jobs, catalog);

  expect_conservation(storm);
  expect_conservation(quiet);
  const double storm_wait = bare_metal_mean_start(storm);
  const double quiet_wait = bare_metal_mean_start(quiet);
  EXPECT_GT(storm.stats.deploy.max_active_transfers, 4u)
      << "the storm never actually contended";
  EXPECT_GT(storm_wait, quiet_wait * 1.2)
      << "gateway contention must measurably delay bare-metal starts "
      << "(storm " << storm_wait << "s vs control " << quiet_wait << "s)";
}

// ------------------------------------------------------- grid determinism

hs::SchedGridSpec small_grid_spec() {
  hs::SchedGridSpec spec;
  spec.policies = {"fifo-dedicated", "backfill-dedicated"};
  spec.mixes = {"bare-metal", "mixed"};
  spec.loads = {1.0, 2.0};
  spec.workload.jobs = 80;
  return spec;
}

std::string grid_csv(const hs::SchedGridResult& grid) {
  std::ostringstream out;
  grid.write_csv(out);
  return out.str();
}

std::string grid_trace(const hs::SchedGridResult& grid) {
  std::ostringstream out;
  grid.write_chrome_trace(out);
  return out.str();
}

std::string grid_metrics(const hs::SchedGridResult& grid) {
  std::ostringstream out;
  grid.aggregate_metrics().write_json(out);
  return out.str();
}

TEST(SchedGrid, ArtifactsAreByteIdenticalAcrossJobsCounts) {
  const hs::SchedGridSpec spec = small_grid_spec();
  const auto serial = hs::run_sched_grid(spec, 1, true);
  const auto parallel = hs::run_sched_grid(spec, 4, true);
  EXPECT_EQ(grid_csv(serial), grid_csv(parallel));
  EXPECT_EQ(grid_trace(serial), grid_trace(parallel));
  EXPECT_EQ(grid_metrics(serial), grid_metrics(parallel));
}

TEST(SchedGrid, SameSeedReproducesDifferentSeedDiverges) {
  const hs::SchedGridSpec spec = small_grid_spec();
  const auto a = hs::run_sched_grid(spec, 1, false);
  const auto b = hs::run_sched_grid(spec, 1, false);
  EXPECT_EQ(grid_csv(a), grid_csv(b));
  hs::SchedGridSpec reseeded = spec;
  reseeded.seed = spec.seed + 1;
  const auto c = hs::run_sched_grid(reseeded, 1, false);
  EXPECT_NE(grid_csv(a), grid_csv(c));
}

TEST(SchedGrid, ObservabilityDoesNotPerturbResults) {
  const hs::SchedGridSpec spec = small_grid_spec();
  const auto cell_off =
      hs::run_sched_cell(spec, "backfill-dedicated", "mixed", 2.0, false);
  const auto cell_on =
      hs::run_sched_cell(spec, "backfill-dedicated", "mixed", 2.0, true);
  EXPECT_EQ(cell_off.stats.completed, cell_on.stats.completed);
  EXPECT_EQ(cell_off.stats.backfill_starts, cell_on.stats.backfill_starts);
  EXPECT_EQ(cell_off.stats.utilization, cell_on.stats.utilization);
  EXPECT_EQ(cell_off.stats.makespan_s, cell_on.stats.makespan_s);
  EXPECT_TRUE(cell_off.trace.empty());
  EXPECT_FALSE(cell_on.trace.empty());
}

TEST(SchedGrid, MetricsKeepZeroPresenceForQuietCounters) {
  hs::SchedGridSpec spec = small_grid_spec();
  const auto cell =
      hs::run_sched_cell(spec, "fifo-dedicated", "bare-metal", 0.5, true);
  const auto counters = cell.metrics.counters();
  for (const char* name :
       {"sched/requeue", "sched/crash", "sched/timeout", "sched/shed",
        "sched/deploy/coalesced"}) {
    ASSERT_TRUE(counters.count(name) != 0)
        << name << " missing (zero-presence broken)";
    EXPECT_EQ(counters.at(name), 0.0) << name;
  }
  EXPECT_EQ(counters.at("sched/submitted"),
            static_cast<double>(spec.workload.jobs));
  EXPECT_EQ(counters.at("sched/completed"),
            static_cast<double>(cell.stats.completed));
}

TEST(SchedGrid, SpecValidateRejectsUnknownAxes) {
  hs::SchedGridSpec spec;
  spec.policies = {"no-such-policy"};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.mixes = {};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.hazards = "no-such-hazard";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(SchedGolden, GridCsvMatchesReference) {
  hs::SchedGridSpec spec;
  spec.policies = {"fifo-dedicated", "backfill-dedicated"};
  spec.mixes = {"bare-metal", "container-heavy"};
  spec.loads = {1.0};
  spec.workload.jobs = 100;
  const auto grid = hs::run_sched_grid(spec, 1, false);
  expect_matches_golden("sched_grid.csv", grid_csv(grid));
}

}  // namespace
