#pragma once

/// \file fsi.hpp
/// \brief Fluid-structure interaction driver: the paper's second use case.
///
/// Two solver instances — Nastin on the lumen, Solidz on the wall — advance
/// together with a strongly-coupled Dirichlet-Neumann scheme per time step:
///
///   repeat (coupling iterations):
///     1. fluid step with the wall-interface velocity from the current
///        wall-displacement iterate;
///     2. wall pressure -> surface traction on the solid's inner face;
///     3. solid static solve -> new interface displacement;
///     4. relaxation; converged when the displacement increment stalls.
///
/// The geometry is linearized (meshes do not deform) — adequate for the
/// small arterial wall strains — but the coupling loop, the interface data
/// exchange, and both solves are real, and their counts parameterize the
/// FSI workload the scalability experiment (Fig. 3) replays at scale.

#include <vector>

#include "alya/nastin.hpp"
#include "alya/solidz.hpp"
#include "alya/tube_mesh.hpp"

namespace hpcs::alya {

struct FsiParams {
  FluidParams fluid{};
  SolidParams solid{};
  int max_coupling_iterations = 30;
  /// Convergence threshold on the max interface-displacement increment,
  /// relative to the wall thickness.
  double coupling_tolerance = 1e-6;
  double relaxation = 0.6;

  void validate() const;
};

struct FsiStepResult {
  int coupling_iterations = 0;
  bool converged = false;
  double mean_radial_displacement = 0.0;  ///< of the interface [m]
};

struct FsiCounters {
  int steps = 0;
  std::uint64_t coupling_iterations = 0;
  std::uint64_t solid_cg_iterations = 0;
  std::uint64_t interface_exchanges = 0;  ///< traction/displacement transfers
};

class FsiDriver {
 public:
  /// Meshes must describe matching geometry: the lumen's "wall" surface
  /// coincides with the wall mesh's "inner" surface (same radius/length).
  FsiDriver(const Mesh& lumen, const Mesh& wall, FsiParams params,
            ThreadPool* pool = nullptr);

  /// Advances one coupled time step.
  FsiStepResult step();

  NastinSolver& fluid() noexcept { return fluid_; }
  SolidzSolver& solid() noexcept { return solid_; }
  const FsiCounters& counters() const noexcept { return counters_; }

  /// Number of interface values exchanged per coupling iteration
  /// (traction out + displacement back).
  std::size_t interface_size() const noexcept { return lumen_wall_.size(); }

 private:
  const Mesh& lumen_mesh_;
  const Mesh& wall_mesh_;
  FsiParams params_;
  NastinSolver fluid_;
  SolidzSolver solid_;
  FsiCounters counters_{};

  std::vector<Index> lumen_wall_;        ///< fluid interface nodes
  std::vector<Index> wall_inner_;        ///< solid interface nodes
  /// Fluid wall node nearest each solid interface node (nearest-node
  /// transfer of the wall velocity).
  std::vector<Index> interface_fluid_nodes_;
  std::vector<QuadFace> inner_faces_;    ///< solid faces the fluid loads
  std::vector<Index> solid_fixed_dofs_;  ///< clamped end rings
  std::vector<Vec3> interface_disp_;     ///< per solid inner node, current
  std::vector<Vec3> interface_disp_prev_step_;
};

}  // namespace hpcs::alya
