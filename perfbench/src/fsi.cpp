// artery-fsi: the coupled Nastin + Solidz run of examples/artery_fsi (its
// meshes and parameters) driven by FsiDriver::step.  The numerics depend on
// the alya thread count through the chunked dot-product reduction, so the
// counts are fixed, never derived from the host: measured passes run on one
// thread, and the traced split repeats the steps on two (half the 4-core
// reference host) for the thread-pool speed-up.  Passes stay on one thread
// because a two-thread pool's wall time follows the host's thread wake-up
// latency, which on a shared host swings 2-3x from one run to the next.

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "alya/fsi.hpp"
#include "alya/threading.hpp"
#include "alya/tube_mesh.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace ha = hpcs::alya;

constexpr int kThreads = 1;       ///< alya threads of a measured pass
constexpr int kSplitThreads = 2;  ///< alya threads of the traced split
constexpr int kSteps = 40;        ///< coupled steps per pass
/// Pinned mean radial displacements must agree to this relative error.
constexpr double kRelTolerance = 1e-9;

struct Model {
  ha::Mesh lumen;
  ha::Mesh wall;
  std::unique_ptr<ha::ThreadPool> pool;
  std::unique_ptr<ha::FsiDriver> driver;
};

ha::Mesh lumen_mesh() {
  return ha::lumen_mesh(ha::TubeParams{
      .radius = 1.0, .length = 4.0, .cross_cells = 6, .axial_cells = 8});
}

ha::Mesh wall_mesh() {
  return ha::wall_mesh(ha::WallParams{.inner_radius = 1.0,
                                      .thickness = 0.3,
                                      .length = 4.0,
                                      .radial_cells = 2,
                                      .circumferential_cells = 16,
                                      .axial_cells = 8});
}

ha::FsiParams fsi_params() {
  ha::FsiParams params;
  params.fluid.density = 1.0;
  params.fluid.viscosity = 1.0;
  params.fluid.inlet_pressure = 16.0;
  params.fluid.dt = 5e-3;
  params.solid.youngs_modulus = 1500.0;
  params.solid.poisson_ratio = 0.3;
  return params;
}

/// Builds meshes and the driver (whose constructor assembles the FEM
/// operators) on a pool of \p threads.
std::unique_ptr<Model> build(Tracer* tracer, int threads,
                             std::string_view mesh_span,
                             std::string_view assembly_span) {
  auto model = std::make_unique<Model>();
  {
    const Tracer::Scope scope(tracer, mesh_span);
    model->lumen = lumen_mesh();
    model->wall = wall_mesh();
  }
  const Tracer::Scope scope(tracer, assembly_span);
  model->pool = std::make_unique<ha::ThreadPool>(threads);
  model->driver = std::make_unique<ha::FsiDriver>(
      model->lumen, model->wall, fsi_params(), model->pool.get());
  return model;
}

/// "<coupling iterations> <mean radial displacement>"
std::string step_output(const ha::FsiStepResult& r) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%d %.17g", r.coupling_iterations,
                r.mean_radial_displacement);
  return buf;
}

class ArteryFsi final : public Workload {
 public:
  bool seeded() const override { return false; }

  Gate::Match match() const override {
    return [](const std::string& expected, const std::string& observed) {
      int iters_e = 0, iters_o = 0;
      double disp_e = 0, disp_o = 0;
      if (std::sscanf(expected.c_str(), "%d %lf", &iters_e, &disp_e) != 2 ||
          std::sscanf(observed.c_str(), "%d %lf", &iters_o, &disp_o) != 2)
        return false;
      return iters_e == iters_o &&
             std::fabs(disp_e - disp_o) <=
                 kRelTolerance * std::max(std::fabs(disp_e), 1e-300);
    };
  }

  void setup(Tracer* tracer) override {
    model_ = build(tracer, kThreads, "alya.mesh", "alya.assembly");
  }

  void run() override {
    steps_.clear();
    for (int s = 0; s < kSteps; ++s) steps_.push_back(model_->driver->step());
  }

  void run_traced(Tracer& tracer) override {
    steps_.clear();
    for (int s = 0; s < kSteps; ++s)
      steps_.push_back(timed(tracer, "alya.step",
                             [&] { return model_->driver->step(); }));
  }

  void check(Gate& gate) override {
    for (std::size_t s = 0; s < steps_.size(); ++s)
      gate.check("step-" + std::to_string(s + 1), step_output(steps_[s]),
                 steps_[s].converged ? std::string{} : "did not converge");
  }

  void split(Tracer& tracer, Gate& gate) override {
    const auto threaded = build(&tracer, kSplitThreads, "alya.split/mesh_2t",
                                "alya.split/assembly_2t");
    for (int s = 0; s < kSteps; ++s) {
      const ha::FsiStepResult r =
          timed(tracer, "alya.split/step_2t",
                [&] { return threaded->driver->step(); });
      gate.check_invariant("2t/step-" + std::to_string(s + 1),
                           r.converged ? std::string{} : "did not converge");
    }
  }

  void layer_values(const std::vector<Span>& spans,
                    Values& values) const override {
    const ha::FsiCounters& fsi = model_->driver->counters();
    const ha::FluidCounters& fluid = model_->driver->fluid().counters();
    const double flops = fluid.assembly_flops + fluid.solver_flops;
    const double bytes = fluid.assembly_bytes + fluid.solver_bytes;
    const double passes =
        static_cast<double>(span_total(spans, "run.pass").count);
    const double step_s = span_total(spans, "alya.step").seconds / passes;
    const double threaded_s =
        span_total(spans, "alya.split/step_2t").seconds;
    values["alya.coupling_iterations"] =
        static_cast<double>(fsi.coupling_iterations);
    values["alya.solid_cg_iterations"] =
        static_cast<double>(fsi.solid_cg_iterations);
    values["alya.pressure_cg_iterations"] =
        static_cast<double>(fluid.pressure_iterations);
    values["alya.flops"] = flops;
    values["alya.bytes_computed"] = bytes;
    values["alya.flops_per_byte"] = bytes > 0 ? flops / bytes : 0.0;
    values["alya.gflops"] = step_s > 0 ? flops / step_s / 1e9 : 0.0;
    values["alya.step_1t_s"] = step_s;
    values["alya.step_2t_s"] = threaded_s;
    values["alya.thread_speedup"] = threaded_s > 0 ? step_s / threaded_s : 0.0;
  }

  std::vector<std::string> notes() const override {
    return {"alya.thread_speedup: " + std::to_string(kSteps) +
                " steps on 1 thread / on " + std::to_string(kSplitThreads) +
                " threads (above 1 when threads help)",
            "alya.bytes_computed: bytes implied by the kernels' operand "
            "sizes; the mesh is cache-resident"};
  }

 private:
  std::unique_ptr<Model> model_;
  std::vector<ha::FsiStepResult> steps_;
};

}  // namespace

std::unique_ptr<Workload> make_artery_fsi() {
  return std::make_unique<ArteryFsi>();
}

}  // namespace perfbench
