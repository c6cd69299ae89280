#include "alya/nastin.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hpcs::alya {

namespace {
// Matrix-free operator cost constants (FLOPs / bytes per element per
// application), calibrated to the implementations in fem.cpp.
constexpr double kAdvectionFlops = 4200.0;
constexpr double kGradientFlops = 3200.0;
constexpr double kDivergenceFlops = 3000.0;
constexpr double kOperatorBytes = 640.0;
}  // namespace

void FluidParams::validate() const {
  if (density <= 0 || viscosity <= 0)
    throw std::invalid_argument("FluidParams: non-positive material");
  if (dt <= 0) throw std::invalid_argument("FluidParams: dt <= 0");
  if (pulse_amplitude < 0)
    throw std::invalid_argument("FluidParams: negative pulse amplitude");
  if (pulse_period <= 0)
    throw std::invalid_argument("FluidParams: pulse_period <= 0");
  pressure_solver.validate();
}

NastinSolver::NastinSolver(const Mesh& mesh, FluidParams params,
                           ThreadPool* pool)
    : mesh_(mesh), geometry_(mesh), params_(params), pool_(pool) {
  params_.validate();
  for (const char* g : {"inlet", "outlet", "wall"})
    if (!mesh_.has_node_group(g))
      throw std::invalid_argument(
          std::string("NastinSolver: mesh lacks node group '") + g + "'");

  laplacian_ = assemble_laplacian(geometry_);
  const auto nn = static_cast<std::size_t>(mesh_.node_count());
  u_.assign(nn, Vec3{});
  p_.assign(nn, 0.0);

  // Pressure Dirichlet set: inlet & outlet (values drive the flow).
  for (Index v : mesh_.node_group("inlet")) {
    pressure_dirichlet_nodes_.push_back(v);
    pressure_dirichlet_values_.push_back(params_.inlet_pressure);
  }
  for (Index v : mesh_.node_group("outlet")) {
    pressure_dirichlet_nodes_.push_back(v);
    pressure_dirichlet_values_.push_back(params_.outlet_pressure);
  }
  // Record the eliminated Dirichlet columns as per-group weights so the
  // RHS shift can be rebuilt for any (possibly pulsatile) inlet value:
  // eliminating column j with value g contributes -A_ij * g to b_i.
  w_inlet_.assign(nn, 0.0);
  w_outlet_.assign(nn, 0.0);
  is_inlet_.assign(nn, 0);
  for (Index v : mesh_.node_group("inlet"))
    is_inlet_[static_cast<std::size_t>(v)] = 1;
  {
    std::vector<char> is_outlet(nn, 0), constrained(nn, 0);
    for (Index v : mesh_.node_group("outlet"))
      is_outlet[static_cast<std::size_t>(v)] = 1;
    for (Index v : pressure_dirichlet_nodes_)
      constrained[static_cast<std::size_t>(v)] = 1;
    for (Index i = 0; i < mesh_.node_count(); ++i) {
      if (constrained[static_cast<std::size_t>(i)]) continue;
      const auto& rp = laplacian_.row_ptr();
      const auto& cols = laplacian_.col_indices();
      const auto& vals = laplacian_.values();
      const auto lo = static_cast<std::size_t>(rp[static_cast<std::size_t>(i)]);
      const auto hi =
          static_cast<std::size_t>(rp[static_cast<std::size_t>(i) + 1]);
      for (std::size_t k = lo; k < hi; ++k) {
        const auto j = static_cast<std::size_t>(cols[k]);
        if (is_inlet_[j])
          w_inlet_[static_cast<std::size_t>(i)] -= vals[k];
        else if (is_outlet[j])
          w_outlet_[static_cast<std::size_t>(i)] -= vals[k];
      }
    }
  }
  poisson_ = laplacian_;
  std::vector<double> scratch(nn, 0.0);
  poisson_.apply_dirichlet(pressure_dirichlet_nodes_,
                           pressure_dirichlet_values_, scratch);

  // Default wall BC: no-slip.
  wall_bc_nodes_ = mesh_.node_group("wall");
  wall_bc_velocity_.assign(wall_bc_nodes_.size(), Vec3{});
  wall_slot_.assign(nn, -1);
  for (std::size_t i = wall_bc_nodes_.size(); i-- > 0;)  // first slot wins
    wall_slot_[static_cast<std::size_t>(wall_bc_nodes_[i])] =
        static_cast<Index>(i);
}

void NastinSolver::set_wall_velocity(const std::vector<Index>& nodes,
                                     const std::vector<Vec3>& velocities) {
  if (nodes.size() != velocities.size())
    throw std::invalid_argument("set_wall_velocity: size mismatch");
  // Reset to no-slip, then apply the prescribed subset.
  std::fill(wall_bc_velocity_.begin(), wall_bc_velocity_.end(), Vec3{});
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    const Index v = nodes[k];
    const Index slot =
        v >= 0 && v < mesh_.node_count()
            ? wall_slot_[static_cast<std::size_t>(v)]
            : -1;
    if (slot < 0)
      throw std::invalid_argument(
          "set_wall_velocity: node not on the wall");
    wall_bc_velocity_[static_cast<std::size_t>(slot)] = velocities[k];
  }
}

void NastinSolver::set_state(std::vector<Vec3> u, std::vector<double> p,
                             double time) {
  const auto nn = static_cast<std::size_t>(mesh_.node_count());
  if (u.size() != nn || p.size() != nn)
    throw std::invalid_argument("set_state: size mismatch");
  u_ = std::move(u);
  p_ = std::move(p);
  if (time >= 0.0) time_ = time;
}

void NastinSolver::apply_velocity_bcs(std::vector<Vec3>& u) const {
  for (std::size_t i = 0; i < wall_bc_nodes_.size(); ++i)
    u[static_cast<std::size_t>(wall_bc_nodes_[i])] = wall_bc_velocity_[i];
}

void NastinSolver::step() {
  const auto nn = static_cast<std::size_t>(mesh_.node_count());
  const auto ne = static_cast<double>(mesh_.element_count());
  const double dt = params_.dt;
  const double nu = params_.kinematic_viscosity();
  const double rho = params_.density;

  // 1. Momentum predictor.
  const auto& mass = geometry_.lumped_mass();
  const auto adv = advection_term(geometry_, u_);
  counters_.assembly_flops += kAdvectionFlops * ne;
  counters_.assembly_bytes += kOperatorBytes * ne;

  std::vector<double> uc(nn), Ku(nn);
  std::vector<Vec3> ustar = u_;
  for (int c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < nn; ++i)
      uc[i] = c == 0 ? u_[i].x : (c == 1 ? u_[i].y : u_[i].z);
    laplacian_.spmv(uc, Ku, pool_);
    counters_.solver_flops += laplacian_.spmv_flops();
    counters_.solver_bytes += laplacian_.spmv_bytes();
    ++counters_.spmv_calls;
    for (std::size_t i = 0; i < nn; ++i) {
      const double visc = -nu * Ku[i] / mass[i];
      const double a = c == 0 ? adv[i].x : (c == 1 ? adv[i].y : adv[i].z);
      const double du = dt * (visc - a);
      if (c == 0)
        ustar[i].x += du;
      else if (c == 1)
        ustar[i].y += du;
      else
        ustar[i].z += du;
    }
  }
  apply_velocity_bcs(ustar);

  // 2. Pressure Poisson (inlet value possibly pulsatile).
  const auto div = nodal_divergence(geometry_, ustar);
  counters_.assembly_flops += kDivergenceFlops * ne;
  counters_.assembly_bytes += kOperatorBytes * ne;

  const double p_in = current_inlet_pressure();
  const double p_out = params_.outlet_pressure;
  std::vector<double> b(nn);
  for (std::size_t i = 0; i < nn; ++i)
    b[i] = -(rho / dt) * mass[i] * div[i] + w_inlet_[i] * p_in +
           w_outlet_[i] * p_out;
  for (Index v : pressure_dirichlet_nodes_)
    b[static_cast<std::size_t>(v)] =
        is_inlet_[static_cast<std::size_t>(v)] ? p_in : p_out;

  last_solve_ = conjugate_gradient(poisson_, b, p_,
                                   params_.pressure_solver, pool_);
  if (!last_solve_.converged)
    throw std::runtime_error("NastinSolver: pressure solve diverged");
  counters_.pressure_iterations +=
      static_cast<std::uint64_t>(last_solve_.iterations);
  counters_.max_pressure_iterations =
      std::max(counters_.max_pressure_iterations, last_solve_.iterations);
  counters_.dot_products += last_solve_.dot_count;
  counters_.spmv_calls += last_solve_.spmv_count;
  counters_.solver_flops += last_solve_.flops;
  counters_.solver_bytes += last_solve_.mem_bytes;

  // 3. Projection.
  const auto grad = nodal_gradient(geometry_, p_);
  counters_.assembly_flops += kGradientFlops * ne;
  counters_.assembly_bytes += kOperatorBytes * ne;
  for (std::size_t i = 0; i < nn; ++i)
    u_[i] = ustar[i] - grad[i] * (dt / rho);
  apply_velocity_bcs(u_);

  time_ += dt;
  ++counters_.steps;
}

double NastinSolver::current_inlet_pressure() const {
  if (params_.pulse_amplitude == 0.0) return params_.inlet_pressure;
  constexpr double kTwoPi = 6.283185307179586;
  return params_.inlet_pressure *
         (1.0 + params_.pulse_amplitude *
                    std::sin(kTwoPi * time_ / params_.pulse_period));
}

double NastinSolver::flow_rate() const {
  // For (nearly) developed flow, int u_z dV = Q * L.
  const auto& mass = geometry_.lumped_mass();
  double integral = 0.0;
  for (std::size_t i = 0; i < u_.size(); ++i)
    integral += mass[i] * u_[i].z;
  Vec3 lo, hi;
  mesh_.bounding_box(lo, hi);
  const double length = hi.z - lo.z;
  return length > 0 ? integral / length : 0.0;
}

int NastinSolver::run_to_steady_state(double tol, int max_steps) {
  if (tol <= 0 || max_steps < 1)
    throw std::invalid_argument("run_to_steady_state: bad arguments");
  const auto nn = static_cast<std::size_t>(mesh_.node_count());
  std::vector<Vec3> prev;
  for (int s = 0; s < max_steps; ++s) {
    prev = u_;
    step();
    double dnorm = 0.0, unorm = 0.0;
    for (std::size_t i = 0; i < nn; ++i) {
      const Vec3 d = u_[i] - prev[i];
      dnorm += d.dot(d);
      unorm += u_[i].dot(u_[i]);
    }
    if (unorm > 0 && std::sqrt(dnorm / unorm) < tol) return s + 1;
  }
  return max_steps;
}

double NastinSolver::max_divergence() const {
  const auto div = nodal_divergence(geometry_, u_);
  double mx = 0.0;
  // Interior nodes only: projected divergence at Dirichlet boundaries is
  // polluted by the BC rows.
  std::vector<char> on_boundary(static_cast<std::size_t>(mesh_.node_count()),
                                0);
  for (const auto& name : mesh_.node_group_names())
    for (Index v : mesh_.node_group(name))
      on_boundary[static_cast<std::size_t>(v)] = 1;
  for (std::size_t i = 0; i < div.size(); ++i)
    if (!on_boundary[i]) mx = std::max(mx, std::abs(div[i]));
  return mx;
}

double NastinSolver::kinetic_energy() const {
  const auto& mass = geometry_.lumped_mass();
  double e = 0.0;
  for (std::size_t i = 0; i < u_.size(); ++i)
    e += 0.5 * params_.density * mass[i] * u_[i].dot(u_[i]);
  return e;
}

std::vector<double> NastinSolver::wall_pressure() const {
  const auto& wall = mesh_.node_group("wall");
  std::vector<double> out;
  out.reserve(wall.size());
  for (Index v : wall) out.push_back(p_[static_cast<std::size_t>(v)]);
  return out;
}

}  // namespace hpcs::alya
