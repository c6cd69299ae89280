#pragma once

/// \file solidz.hpp
/// \brief Linear-elasticity module (Alya's "solidz") for the vessel wall.
///
/// Solves static equilibrium K u = f on the annular wall mesh under a
/// lumen-pressure surface load, with per-dof Dirichlet constraints.  The
/// analytic reference is Lamé's thick-walled-cylinder solution, which the
/// test suite checks the radial displacement against.

#include <array>
#include <span>
#include <string>
#include <vector>

#include "alya/csr.hpp"
#include "alya/mesh.hpp"
#include "alya/solvers.hpp"

namespace hpcs::alya {

struct SolidParams {
  double youngs_modulus = 1.0e6;  ///< [Pa] — arterial wall ~0.3-1 MPa
  double poisson_ratio = 0.45;    ///< nearly incompressible tissue
  SolverOptions solver{};

  void validate() const;
};

/// A hex's quad face: its 4 node ids, ordered so the right-hand normal
/// points out of the element.
using QuadFace = std::array<Index, 4>;

/// The element faces whose 4 nodes all lie in node group \p group, in
/// element order, then in each hex's face order.
std::vector<QuadFace> group_faces(const Mesh& mesh, const std::string& group);

/// Consistent nodal forces equivalent to pressure \p p acting on \p faces,
/// pushing against the outward surface normal of the solid (i.e. the fluid
/// pushes the wall outward for the "inner" faces of the wall mesh).  The
/// faces' forces are summed in the order given.
std::vector<Vec3> pressure_load(const Mesh& mesh,
                                const std::vector<QuadFace>& faces, double p);

/// pressure_load over the faces group_faces(\p mesh, \p group) finds.
std::vector<Vec3> pressure_load(const Mesh& mesh, const std::string& group,
                                double p);

class SolidzSolver {
 public:
  /// Assembles the stiffness once; \p pool threads the solve kernels.
  SolidzSolver(const Mesh& mesh, SolidParams params,
               ThreadPool* pool = nullptr);

  /// Solves K u = f with dofs (3*node + component) in \p fixed_dofs pinned
  /// to zero.  Returns the converged displacement per node.
  /// \throws std::runtime_error on solver failure.
  const std::vector<Vec3>& solve(const std::vector<Vec3>& nodal_forces,
                                 const std::vector<Index>& fixed_dofs);

  const std::vector<Vec3>& displacement() const noexcept { return disp_; }
  const SolveStats& last_stats() const noexcept { return last_; }
  const Mesh& mesh() const noexcept { return mesh_; }

  /// Mean radial displacement (projection of u on the radial direction)
  /// over the nodes of \p group — the quantity Lamé's formula predicts.
  double mean_radial_displacement(const std::string& group) const;

 private:
  const Mesh& mesh_;
  SolidParams params_;
  ThreadPool* pool_;
  CsrMatrix stiffness_;  ///< pristine copy (constraints applied per solve)
  std::vector<Vec3> disp_;
  SolveStats last_{};
};

}  // namespace hpcs::alya
