#include "alya/fsi.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace hpcs::alya {

void FsiParams::validate() const {
  fluid.validate();
  solid.validate();
  if (max_coupling_iterations < 1)
    throw std::invalid_argument("FsiParams: max_coupling_iterations < 1");
  if (coupling_tolerance <= 0)
    throw std::invalid_argument("FsiParams: coupling_tolerance <= 0");
  if (relaxation <= 0 || relaxation > 1)
    throw std::invalid_argument("FsiParams: relaxation outside (0,1]");
}

FsiDriver::FsiDriver(const Mesh& lumen, const Mesh& wall, FsiParams params,
                     ThreadPool* pool)
    : lumen_mesh_(lumen),
      wall_mesh_(wall),
      params_(params),
      fluid_(lumen, params.fluid, pool),
      solid_(wall, params.solid, pool) {
  params_.validate();
  if (!wall.has_node_group("inner") || !wall.has_node_group("ends"))
    throw std::invalid_argument("FsiDriver: wall mesh lacks inner/ends");

  lumen_wall_ = lumen.node_group("wall");
  wall_inner_ = wall.node_group("inner");

  // Nearest-node transfer map: solid inner node -> closest fluid wall node.
  interface_fluid_nodes_.reserve(wall_inner_.size());
  for (Index v : wall_inner_) {
    const Vec3& ps = wall.node(v);
    double best = std::numeric_limits<double>::max();
    std::size_t best_j = 0;
    for (std::size_t j = 0; j < lumen_wall_.size(); ++j) {
      const Vec3 d = lumen.node(lumen_wall_[j]) - ps;
      const double dist = d.dot(d);
      if (dist < best) {
        best = dist;
        best_j = j;
      }
    }
    interface_fluid_nodes_.push_back(lumen_wall_[best_j]);
  }
  inner_faces_ = group_faces(wall, "inner");

  // Clamped end rings (all three dofs).
  for (Index v : wall.node_group("ends"))
    for (Index c = 0; c < 3; ++c)
      solid_fixed_dofs_.push_back(3 * v + c);

  interface_disp_.assign(wall_inner_.size(), Vec3{});
  interface_disp_prev_step_ = interface_disp_;
}

FsiStepResult FsiDriver::step() {
  const double dt = params_.fluid.dt;
  // Snapshot the fluid state (including the clock: re-running a step must
  // not advance pulsatile driving); every coupling iteration re-runs the
  // same time step from it.
  const std::vector<Vec3> u0 = fluid_.velocity();
  const std::vector<double> p0 = fluid_.pressure();
  const double t0 = fluid_.time();

  FsiStepResult result;
  std::vector<Vec3> disp = interface_disp_;

  // Aitken dynamic relaxation: the quasi-static solid + incompressible
  // fluid combination has a large added-mass gain, so a fixed relaxation
  // factor diverges; Aitken adapts omega from successive residuals.
  std::vector<Vec3> residual(disp.size(), Vec3{});
  std::vector<Vec3> residual_prev(disp.size(), Vec3{});
  double omega = std::min(params_.relaxation, 0.05);

  for (int k = 0; k < params_.max_coupling_iterations; ++k) {
    // 1. Fluid step with interface velocity (Δd/dt at the wall).
    fluid_.set_state(u0, p0, t0);
    std::vector<Vec3> bc_vel;
    bc_vel.reserve(wall_inner_.size());
    for (std::size_t i = 0; i < wall_inner_.size(); ++i)
      bc_vel.push_back((disp[i] - interface_disp_prev_step_[i]) * (1.0 / dt));
    fluid_.set_wall_velocity(interface_fluid_nodes_, bc_vel);
    fluid_.step();
    ++counters_.interface_exchanges;

    // 2. Wall traction from the fluid: mean lumen pressure on the wall.
    const auto pw = fluid_.wall_pressure();
    double pmean = 0.0;
    for (double v : pw) pmean += v;
    pmean /= static_cast<double>(pw.size());
    const auto load = pressure_load(wall_mesh_, inner_faces_, pmean);

    // 3. Solid solve.
    const auto& full_disp = solid_.solve(load, solid_fixed_dofs_);
    counters_.solid_cg_iterations +=
        static_cast<std::uint64_t>(solid_.last_stats().iterations);
    ++counters_.interface_exchanges;

    // 4. Aitken-relaxed interface update + convergence check.
    for (std::size_t i = 0; i < wall_inner_.size(); ++i)
      residual[i] =
          full_disp[static_cast<std::size_t>(wall_inner_[i])] - disp[i];
    if (k > 0) {
      // omega_k = -omega_{k-1} * <r_{k-1}, r_k - r_{k-1}> / |r_k - r_{k-1}|^2
      double num = 0.0, den = 0.0;
      for (std::size_t i = 0; i < residual.size(); ++i) {
        const Vec3 dr = residual[i] - residual_prev[i];
        num += residual_prev[i].dot(dr);
        den += dr.dot(dr);
      }
      if (den > 0.0) omega = -omega * num / den;
      omega = std::clamp(omega, -1.0, 1.0);
      if (std::abs(omega) < 1e-6) omega = omega < 0 ? -1e-6 : 1e-6;
    }
    double max_incr = 0.0;
    for (std::size_t i = 0; i < wall_inner_.size(); ++i) {
      const Vec3 incr = residual[i] * omega;
      max_incr = std::max(max_incr, incr.norm());
      disp[i] = disp[i] + incr;
    }
    residual_prev = residual;
    ++counters_.coupling_iterations;
    result.coupling_iterations = k + 1;

    // Scale-free threshold: relative to the current displacement scale.
    double scale = 0.0;
    for (const auto& d : disp) scale = std::max(scale, d.norm());
    if (max_incr <= params_.coupling_tolerance * std::max(scale, 1e-30)) {
      result.converged = true;
      break;
    }
  }

  interface_disp_prev_step_ = interface_disp_;
  interface_disp_ = disp;
  ++counters_.steps;

  double mean_rad = 0.0;
  for (std::size_t i = 0; i < wall_inner_.size(); ++i) {
    const Vec3& pnode = wall_mesh_.node(wall_inner_[i]);
    const double r = std::hypot(pnode.x, pnode.y);
    if (r > 0)
      mean_rad += (disp[i].x * pnode.x + disp[i].y * pnode.y) / r;
  }
  result.mean_radial_displacement =
      mean_rad / static_cast<double>(wall_inner_.size());
  return result;
}

}  // namespace hpcs::alya
