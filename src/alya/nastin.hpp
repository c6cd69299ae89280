#pragma once

/// \file nastin.hpp
/// \brief Incompressible Navier-Stokes module (Alya's "nastin"):
///        fractional-step (Chorin) projection on the artery lumen.
///
/// Per time step:
///   1. explicit momentum predictor:  u* = u + dt (-(u·∇)u + ν ∇²u)
///   2. pressure Poisson solve (CG):  ∇²p = (ρ/dt) ∇·u*   with Dirichlet
///      pressure at inlet/outlet and natural (Neumann) walls
///   3. projection:                   u = u* - (dt/ρ) ∇p,  no-slip walls
///
/// The flow is driven by the inlet/outlet pressure difference; the steady
/// state in a straight tube is Poiseuille flow, which the test suite
/// verifies against the analytic profile.  Every kernel is instrumented so
/// real runs yield the FLOP/byte/iteration counts the performance model
/// replays at scale.

#include <span>
#include <vector>

#include "alya/fem.hpp"
#include "alya/mesh.hpp"
#include "alya/solvers.hpp"
#include "alya/threading.hpp"

namespace hpcs::alya {

struct FluidParams {
  double density = 1060.0;        ///< kg/m^3 (blood)
  double viscosity = 3.5e-3;      ///< dynamic viscosity [Pa s]
  double dt = 1e-3;               ///< time step [s]
  double inlet_pressure = 1.4;    ///< driving Δp across the segment [Pa]
  double outlet_pressure = 0.0;
  /// Pulsatile driving (cardiac cycle): the inlet pressure becomes
  /// inlet_pressure * (1 + pulse_amplitude * sin(2*pi*t / pulse_period)).
  /// Amplitude 0 (default) recovers the steady problem.
  double pulse_amplitude = 0.0;
  double pulse_period = 1.0;  ///< [s]
  SolverOptions pressure_solver{};

  double kinematic_viscosity() const { return viscosity / density; }
  void validate() const;
};

/// Aggregated per-run instrumentation, consumed by the workload model.
struct FluidCounters {
  int steps = 0;
  double assembly_flops = 0.0;   ///< matrix-free operators (adv/grad/div)
  double assembly_bytes = 0.0;
  double solver_flops = 0.0;     ///< pressure CG
  double solver_bytes = 0.0;
  std::uint64_t pressure_iterations = 0;
  /// Largest single-solve iteration count (cold-start behaviour; the
  /// warm-started steady-state solves converge much faster).
  int max_pressure_iterations = 0;
  std::uint64_t dot_products = 0;  ///< global reductions in the solver
  std::uint64_t spmv_calls = 0;
};

class NastinSolver {
 public:
  /// \param mesh lumen mesh with "inlet"/"outlet"/"wall" node groups
  /// \param pool optional thread pool for the linear-algebra kernels
  NastinSolver(const Mesh& mesh, FluidParams params,
               ThreadPool* pool = nullptr);

  /// Advances one time step.  \throws std::runtime_error if the pressure
  /// solve fails to converge.
  void step();

  /// Runs until the velocity field change per step falls below \p tol
  /// (relative, L2) or \p max_steps elapse.  Returns steps taken.
  int run_to_steady_state(double tol, int max_steps);

  const std::vector<Vec3>& velocity() const noexcept { return u_; }
  const std::vector<double>& pressure() const noexcept { return p_; }
  const Mesh& mesh() const noexcept { return mesh_; }
  const FluidCounters& counters() const noexcept { return counters_; }
  double time() const noexcept { return time_; }
  /// The inlet pressure the *next* step will apply (pulsatile driving).
  double current_inlet_pressure() const;
  /// Volumetric flow rate through a cross-section: int u_z dA approximated
  /// by the mass-weighted mean axial velocity times the section area.
  double flow_rate() const;
  const SolveStats& last_pressure_stats() const noexcept {
    return last_solve_;
  }

  /// Sets prescribed wall velocities (FSI: interface motion).  The map is
  /// wall-node -> velocity; nodes absent keep no-slip zero.
  void set_wall_velocity(const std::vector<Index>& nodes,
                         const std::vector<Vec3>& velocities);

  /// Replaces the solution state (used by the FSI driver to re-run a time
  /// step inside strong-coupling iterations).  The simulation clock is
  /// kept unless \p time >= 0 is given (re-running a step must also rewind
  /// the clock, or pulsatile driving would advance per coupling iteration).
  void set_state(std::vector<Vec3> u, std::vector<double> p,
                 double time = -1.0);

  /// Maximum |∇·u| over nodes (incompressibility check).
  double max_divergence() const;

  /// 0.5 ρ ∫|u|^2 dΩ via lumped mass.
  double kinetic_energy() const;

  /// Pressure values at the wall nodes (traction for FSI coupling).
  std::vector<double> wall_pressure() const;

 private:
  void apply_velocity_bcs(std::vector<Vec3>& u) const;

  const Mesh& mesh_;
  MeshGeometry geometry_;        ///< Gauss-point data and lumped mass
  FluidParams params_;
  ThreadPool* pool_;

  CsrMatrix laplacian_;          ///< viscous operator & Poisson matrix base
  CsrMatrix poisson_;            ///< Laplacian with pressure Dirichlet rows
  std::vector<Vec3> u_;
  std::vector<double> p_;
  std::vector<Index> wall_bc_nodes_;      ///< the "wall" group
  std::vector<Vec3> wall_bc_velocity_;    ///< per wall_bc_nodes_ slot
  std::vector<Index> wall_slot_;          ///< node -> slot, -1 off the wall
  std::vector<char> is_inlet_;            ///< node is in the "inlet" group
  SolveStats last_solve_{};
  FluidCounters counters_{};
  std::vector<Index> pressure_dirichlet_nodes_;
  std::vector<double> pressure_dirichlet_values_;
  /// Per-node RHS weights of the eliminated Dirichlet columns, split by
  /// boundary group so time-dependent (pulsatile) inlet values rescale
  /// them: shift_i(t) = w_inlet_[i] * p_in(t) + w_outlet_[i] * p_out.
  std::vector<double> w_inlet_;
  std::vector<double> w_outlet_;
  double time_ = 0.0;
};

}  // namespace hpcs::alya
