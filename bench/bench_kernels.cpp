// Google-benchmark microkernel suite: the hot paths of the real solver
// (SpMV, CG, assembly, partitioning), of the simulator (event engine,
// deployment DES, experiment replay) and of the temporal telemetry
// (time-series windows, quantile sketches).  These quantify the cost of
// regenerating the paper's figures and guard against performance
// regressions in the library itself.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "alya/fem.hpp"
#include "alya/nastin.hpp"
#include "alya/partition.hpp"
#include "alya/solvers.hpp"
#include "alya/tube_mesh.hpp"
#include "container/deployment.hpp"
#include "core/images.hpp"
#include "core/runner.hpp"
#include "hw/presets.hpp"
#include "obs/sketch.hpp"
#include "obs/timeseries.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace ha = hpcs::alya;
namespace hc = hpcs::container;
namespace ho = hpcs::obs;
namespace hs = hpcs::study;

namespace {

const ha::Mesh& bench_mesh() {
  static const ha::Mesh mesh = ha::lumen_mesh(ha::TubeParams{
      .radius = 1.0, .length = 4.0, .cross_cells = 12, .axial_cells = 24});
  return mesh;
}

const ha::CsrMatrix& bench_matrix() {
  static const ha::CsrMatrix K =
      ha::assemble_laplacian(ha::MeshGeometry(bench_mesh()));
  return K;
}

}  // namespace

static void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    hpcs::sim::Engine engine;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i)
      engine.schedule(static_cast<double>(i % 97), [] {});
    engine.run();
    benchmark::DoNotOptimize(engine.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineEventThroughput)->Arg(1000)->Arg(100000);

static void BM_RngDraws(benchmark::State& state) {
  hpcs::sim::Rng rng(42);
  double sink = 0;
  for (auto _ : state) sink += rng.lognormal_median(1.0, 0.01);
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngDraws);

static void BM_MeshGeneration(benchmark::State& state) {
  for (auto _ : state) {
    const auto mesh = ha::lumen_mesh(ha::TubeParams{
        .radius = 1.0, .length = 4.0, .cross_cells = 8, .axial_cells = 16});
    benchmark::DoNotOptimize(mesh.node_count());
  }
}
BENCHMARK(BM_MeshGeneration);

static void BM_Partition(benchmark::State& state) {
  const auto& mesh = bench_mesh();
  for (auto _ : state) {
    ha::MeshPartition part(mesh, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(part.max_halo_nodes());
  }
}
BENCHMARK(BM_Partition)->Arg(8)->Arg(64);

static void BM_LaplacianAssembly(benchmark::State& state) {
  const auto& mesh = bench_mesh();
  for (auto _ : state) {
    const auto K = ha::assemble_laplacian(ha::MeshGeometry(mesh));
    benchmark::DoNotOptimize(K.nnz());
  }
  state.SetItemsProcessed(state.iterations() * bench_mesh().element_count());
}
BENCHMARK(BM_LaplacianAssembly);

static void BM_SpMV(benchmark::State& state) {
  const auto& K = bench_matrix();
  const auto n = static_cast<std::size_t>(K.rows());
  std::vector<double> x(n, 1.0), y(n);
  const int threads = static_cast<int>(state.range(0));
  std::unique_ptr<ha::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ha::ThreadPool>(threads);
  for (auto _ : state) {
    K.spmv(x, y, pool.get());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(K.spmv_bytes()));
}
BENCHMARK(BM_SpMV)->Arg(1)->Arg(2)->Arg(4);

static void BM_CgSolve(benchmark::State& state) {
  const auto& K = bench_matrix();
  const auto n = static_cast<std::size_t>(K.rows());
  auto A = K;
  std::vector<double> rhs(n, 0.0);
  // Make it nonsingular: Dirichlet on the first/last nodes.
  A.apply_dirichlet({0, static_cast<ha::Index>(n - 1)}, {1.0, 0.0}, rhs);
  ha::SolverOptions opts;
  opts.rel_tolerance = 1e-8;
  for (auto _ : state) {
    std::vector<double> x(n, 0.0);
    const auto st = ha::conjugate_gradient(A, rhs, x, opts);
    benchmark::DoNotOptimize(st.iterations);
  }
}
BENCHMARK(BM_CgSolve);

static void BM_NastinStep(benchmark::State& state) {
  const auto mesh = ha::lumen_mesh(ha::TubeParams{
      .radius = 1.0, .length = 4.0, .cross_cells = 8, .axial_cells = 8});
  ha::FluidParams fp;
  fp.density = 1.0;
  fp.viscosity = 1.0;
  fp.inlet_pressure = 16.0;
  fp.dt = 5e-3;
  ha::NastinSolver solver(mesh, fp);
  for (auto _ : state) {
    solver.step();
    benchmark::DoNotOptimize(solver.kinetic_energy());
  }
}
BENCHMARK(BM_NastinStep);

static void BM_DeploymentSim(benchmark::State& state) {
  const auto lenox = hpcs::hw::presets::lenox();
  const auto rt = hc::ContainerRuntime::make(hc::RuntimeKind::Docker);
  const auto image = hs::alya_image(lenox, hc::RuntimeKind::Docker,
                                    hc::BuildMode::SelfContained);
  for (auto _ : state) {
    hc::DeploymentSimulator sim(lenox);
    benchmark::DoNotOptimize(sim.deploy(*rt, image, 4, 28).total_time);
  }
}
BENCHMARK(BM_DeploymentSim);

static void BM_ExperimentRun(benchmark::State& state) {
  const auto mn4 = hpcs::hw::presets::marenostrum4();
  const hs::ExperimentRunner runner;
  const int nodes = static_cast<int>(state.range(0));
  hs::Scenario s{.cluster = mn4,
                 .runtime = hc::RuntimeKind::BareMetal,
                 .app = hs::AppCase::ArteryFsi,
                 .nodes = nodes,
                 .ranks = nodes * 48,
                 .threads = 1,
                 .time_steps = 5};
  for (auto _ : state)
    benchmark::DoNotOptimize(runner.run(s).avg_step_time);
}
BENCHMARK(BM_ExperimentRun)->Arg(4)->Arg(64)->Arg(256);

// The windowed-store hot path: every gateway/scheduler event lands here
// when temporal telemetry is on — counter bumps, gauge samples, and
// sketch observations spread over ~137 one-minute windows.
static void BM_ObsTimeseriesAppend(benchmark::State& state) {
  for (auto _ : state) {
    ho::TimeSeries ts(60.0);
    for (int i = 0; i < 65536; ++i) {
      const double t = static_cast<double>(i) * 0.125;
      ts.count("gateway/arrivals", t);
      if (i % 4 == 0) ts.gauge("gateway/queue_depth", t, double(i % 97));
      ts.observe("gateway/start_latency_s", t,
                 0.01 + static_cast<double>(i * 31 % 1000) / 100.0);
    }
    benchmark::DoNotOptimize(ts.counter_total("gateway/arrivals"));
  }
}
BENCHMARK(BM_ObsTimeseriesAppend);

// The aggregation hot path behind the campaign's time-series fold: 256
// per-cell sketches of 64 values each, merged bucket by bucket in index
// order.
static void BM_ObsSketchMerge(benchmark::State& state) {
  for (auto _ : state) {
    std::vector<ho::QuantileSketch> sketches(
        256, ho::QuantileSketch(ho::SketchConfig{}));
    for (std::size_t i = 0; i < sketches.size(); ++i)
      for (std::size_t k = 0; k < 64; ++k)
        sketches[i].add(
            0.001 + static_cast<double>((i * 67 + k * 31) % 4096) / 40.96);
    ho::QuantileSketch total;
    for (const ho::QuantileSketch& s : sketches) total.merge(s);
    benchmark::DoNotOptimize(total.quantile(0.99));
    benchmark::DoNotOptimize(total.count());
  }
}
BENCHMARK(BM_ObsSketchMerge);
