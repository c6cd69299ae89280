#include "alya/temper.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hpcs::alya {

void ScalarParams::validate() const {
  if (diffusivity <= 0)
    throw std::invalid_argument("ScalarParams: diffusivity <= 0");
  if (dt <= 0) throw std::invalid_argument("ScalarParams: dt <= 0");
  solver.validate();
}

std::vector<double> scalar_advection(const MeshGeometry& geometry,
                                     std::span<const Vec3> u,
                                     std::span<const double> c) {
  const Mesh& mesh = geometry.mesh();
  const auto nn = static_cast<std::size_t>(mesh.node_count());
  if (u.size() != nn || c.size() != nn)
    throw std::invalid_argument("scalar_advection: size mismatch");
  std::vector<double> adv(nn, 0.0);
  const auto& m = geometry.lumped_mass();
  for (Index e = 0; e < mesh.element_count(); ++e) {
    const auto& conn = mesh.element(e);
    for (std::size_t q = 0; q < 8; ++q) {
      const auto& n = geometry.shape(q);
      const auto& j = geometry.point(e, q);
      Vec3 ug{};
      Vec3 gradc{};
      for (std::size_t b = 0; b < 8; ++b) {
        const auto idx = static_cast<std::size_t>(conn[b]);
        ug = ug + u[idx] * n[b];
        gradc.x += j.dNdx[b][0] * c[idx];
        gradc.y += j.dNdx[b][1] * c[idx];
        gradc.z += j.dNdx[b][2] * c[idx];
      }
      const double conv = ug.dot(gradc);
      for (std::size_t a = 0; a < 8; ++a)
        adv[static_cast<std::size_t>(conn[a])] += n[a] * j.det * conv;
    }
  }
  for (std::size_t i = 0; i < nn; ++i)
    if (m[i] > 0) adv[i] /= m[i];
  return adv;
}

TemperSolver::TemperSolver(const Mesh& mesh, ScalarParams params,
                           ThreadPool* pool)
    : mesh_(mesh), geometry_(mesh), params_(params), pool_(pool) {
  params_.validate();
  for (const char* g : {"inlet", "outlet", "wall"})
    if (!mesh_.has_node_group(g))
      throw std::invalid_argument(
          std::string("TemperSolver: mesh lacks node group '") + g + "'");

  const auto nn = static_cast<std::size_t>(mesh_.node_count());
  c_.assign(nn, 0.0);

  // System matrix: M + dt D K.
  const auto& mass = geometry_.lumped_mass();
  system_ = assemble_laplacian(geometry_);
  system_.scale(params_.dt * params_.diffusivity);
  for (Index i = 0; i < mesh_.node_count(); ++i)
    system_.add(i, i, mass[static_cast<std::size_t>(i)]);

  for (Index v : mesh_.node_group("inlet")) {
    dirichlet_nodes_.push_back(v);
    dirichlet_values_.push_back(params_.inlet_value);
  }
  if (params_.absorb_at_wall) {
    // Inlet nodes that are also on the wall keep the inlet value (the
    // Dirichlet application below is last-writer-wins on the RHS, so
    // order wall first is wrong; dedup by skipping wall nodes already in
    // the inlet set).
    const auto& inlet = mesh_.node_group("inlet");
    for (Index v : mesh_.node_group("wall")) {
      if (std::binary_search(inlet.begin(), inlet.end(), v)) continue;
      dirichlet_nodes_.push_back(v);
      dirichlet_values_.push_back(params_.wall_value);
    }
  }
  bc_shift_.assign(nn, 0.0);
  system_.apply_dirichlet(dirichlet_nodes_, dirichlet_values_, bc_shift_);
  apply_dirichlet_values(c_);
}

void TemperSolver::apply_dirichlet_values(std::vector<double>& c) const {
  for (std::size_t k = 0; k < dirichlet_nodes_.size(); ++k)
    c[static_cast<std::size_t>(dirichlet_nodes_[k])] =
        dirichlet_values_[k];
}

void TemperSolver::step(std::span<const Vec3> u) {
  const auto nn = static_cast<std::size_t>(mesh_.node_count());
  if (u.size() != nn)
    throw std::invalid_argument("TemperSolver::step: velocity size");

  const auto adv = scalar_advection(geometry_, u, c_);
  const auto& mass = geometry_.lumped_mass();
  std::vector<double> rhs(nn);
  for (std::size_t i = 0; i < nn; ++i)
    rhs[i] = mass[i] * (c_[i] - params_.dt * adv[i]) + bc_shift_[i];
  for (std::size_t k = 0; k < dirichlet_nodes_.size(); ++k)
    rhs[static_cast<std::size_t>(dirichlet_nodes_[k])] =
        dirichlet_values_[k];

  last_ = conjugate_gradient(system_, rhs, c_, params_.solver, pool_);
  if (!last_.converged)
    throw std::runtime_error("TemperSolver: diffusion solve diverged");
  ++steps_;
}

int TemperSolver::run_to_steady_state(std::span<const Vec3> u, double tol,
                                      int max_steps) {
  if (tol <= 0 || max_steps < 1)
    throw std::invalid_argument("run_to_steady_state: bad arguments");
  std::vector<double> prev;
  for (int s = 0; s < max_steps; ++s) {
    prev = c_;
    step(u);
    double dn = 0.0, cn = 0.0;
    for (std::size_t i = 0; i < c_.size(); ++i) {
      const double d = c_[i] - prev[i];
      dn += d * d;
      cn += c_[i] * c_[i];
    }
    if (cn > 0 && std::sqrt(dn / cn) < tol) return s + 1;
  }
  return max_steps;
}

double TemperSolver::total_mass() const {
  const auto& mass = geometry_.lumped_mass();
  double m = 0.0;
  for (std::size_t i = 0; i < c_.size(); ++i) m += mass[i] * c_[i];
  return m;
}

double TemperSolver::min_value() const {
  return *std::min_element(c_.begin(), c_.end());
}

double TemperSolver::max_value() const {
  return *std::max_element(c_.begin(), c_.end());
}

}  // namespace hpcs::alya
