#pragma once

/// \file temper.hpp
/// \brief Scalar transport module (Alya's "temper"): advection-diffusion
///        of a passive scalar — oxygen concentration in blood, heat, or a
///        contrast agent — carried by the nastin velocity field.
///
///     dc/dt + u . grad(c) = D lap(c)
///
/// Discretization: explicit L2-projected advection + implicit diffusion,
///
///     (M + dt D K) c^{n+1} = M (c^n - dt u.grad(c)^n)
///
/// solved with Jacobi-CG (the system is SPD).  Boundary conditions:
/// Dirichlet at the inlet (fully oxygenated blood, c = 1) and at the wall
/// (perfectly absorbing tissue, c = 0); the outlet is free (natural).
/// The test suite validates the steady 1D plug-flow profile against the
/// analytic exponential boundary layer.

#include <span>
#include <vector>

#include "alya/fem.hpp"
#include "alya/mesh.hpp"
#include "alya/solvers.hpp"

namespace hpcs::alya {

struct ScalarParams {
  double diffusivity = 1e-3;  ///< D [m^2/s]
  double dt = 1e-3;
  double inlet_value = 1.0;
  double wall_value = 0.0;
  bool absorb_at_wall = true;  ///< Dirichlet wall (false: no-flux wall)
  SolverOptions solver{};

  void validate() const;
};

/// L2-projected scalar advection a_i = (1/m_i) int N_i (u . grad c) dV.
std::vector<double> scalar_advection(const MeshGeometry& geometry,
                                     std::span<const Vec3> u,
                                     std::span<const double> c);

class TemperSolver {
 public:
  /// \param mesh lumen mesh with "inlet"/"outlet"/"wall" node groups
  TemperSolver(const Mesh& mesh, ScalarParams params,
               ThreadPool* pool = nullptr);

  /// Advances one step with the (frozen) velocity field \p u.
  void step(std::span<const Vec3> u);

  /// Runs until the scalar field change per step drops below \p tol
  /// (relative L2) or \p max_steps elapse; returns steps taken.
  int run_to_steady_state(std::span<const Vec3> u, double tol,
                          int max_steps);

  const std::vector<double>& concentration() const noexcept { return c_; }
  const SolveStats& last_stats() const noexcept { return last_; }
  int steps() const noexcept { return steps_; }

  /// Scalar mass int c dV (lumped).
  double total_mass() const;

  /// Field extrema (maximum-principle checks).
  double min_value() const;
  double max_value() const;

 private:
  void apply_dirichlet_values(std::vector<double>& c) const;

  const Mesh& mesh_;
  MeshGeometry geometry_;       ///< Gauss-point data and lumped mass
  ScalarParams params_;
  ThreadPool* pool_;
  CsrMatrix system_;            ///< M + dt D K with Dirichlet rows
  std::vector<double> bc_shift_;
  std::vector<Index> dirichlet_nodes_;
  std::vector<double> dirichlet_values_;
  std::vector<double> c_;
  SolveStats last_{};
  int steps_ = 0;
};

}  // namespace hpcs::alya
