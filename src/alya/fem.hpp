#pragma once

/// \file fem.hpp
/// \brief FEM operators on trilinear hex meshes.
///
/// Provides the discrete operators the fluid and solid modules are built
/// from: scalar stiffness (Laplacian), lumped mass, L2-projected gradient /
/// divergence / advection, and the 3-dof linear-elasticity stiffness.
/// Assembly is serial (deterministic); the solver kernels (SpMV, vector
/// ops) are the threaded hot path, matching Alya's profile where the
/// implicit solve dominates.

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "alya/csr.hpp"
#include "alya/hex_shape.hpp"
#include "alya/mesh.hpp"

namespace hpcs::alya {

/// Gauss-point geometry of a mesh, computed once: for each element and
/// each of its 8 Gauss points, the |J| and physical shape gradients that
/// hex::jacobian returns there, plus the shape table and the lumped mass.
/// The meshes never move, so the scalar operators below read this instead
/// of recomputing every Jacobian per call (MFEM's partial assembly keeps
/// the same per-point data).  The values are those hex::jacobian returns,
/// so every operator result keeps its bits.  Holds a reference to \p mesh.
class MeshGeometry {
 public:
  explicit MeshGeometry(const Mesh& mesh);

  const Mesh& mesh() const noexcept { return mesh_; }
  /// |J| and dN/dx at Gauss point \p q (hex::gauss_points order) of \p e.
  const hex::JacobianResult& point(Index e, std::size_t q) const {
    return points_[8 * static_cast<std::size_t>(e) + q];
  }
  /// Shape-function values at Gauss point \p q.
  const std::array<double, 8>& shape(std::size_t q) const {
    return shape_[q];
  }
  /// Lumped (row-sum) mass vector m_i = ∫ N_i dΩ.
  const std::vector<double>& lumped_mass() const noexcept { return mass_; }

 private:
  const Mesh& mesh_;
  std::array<std::array<double, 8>, 8> shape_{};
  std::vector<hex::JacobianResult> points_;  ///< 8 per element
  std::vector<double> mass_;
};

/// Assembles the scalar stiffness matrix K_ij = ∫ ∇N_i · ∇N_j dΩ into a
/// matrix with the mesh's node-adjacency pattern.
CsrMatrix assemble_laplacian(const MeshGeometry& geometry);

/// L2-projected nodal gradient of a scalar field:
/// g_i = (1/m_i) Σ_e ∫ N_i ∇p dΩ.
std::vector<Vec3> nodal_gradient(const MeshGeometry& geometry,
                                 std::span<const double> p);

/// L2-projected nodal divergence of a vector field:
/// d_i = (1/m_i) Σ_e ∫ N_i (∇·u) dΩ.
std::vector<double> nodal_divergence(const MeshGeometry& geometry,
                                     std::span<const Vec3> u);

/// L2-projected advection term a_i = (1/m_i) Σ_e ∫ N_i (u·∇)u dΩ.
std::vector<Vec3> advection_term(const MeshGeometry& geometry,
                                 std::span<const Vec3> u);

/// Assembles the linear-elasticity stiffness (Young's modulus \p E,
/// Poisson ratio \p nu) with 3 dofs per node (dof = 3*node + component),
/// into a matrix of 3x3 node blocks.
CsrMatrix assemble_elasticity(const Mesh& mesh, double E, double nu);

/// Approximate FLOP count of assembling one hex element's scalar stiffness
/// (used by the workload model; calibrated against the implementation).
inline constexpr double kLaplacianAssemblyFlopsPerElement = 5200.0;

}  // namespace hpcs::alya
