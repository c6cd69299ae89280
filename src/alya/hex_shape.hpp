#pragma once

/// \file hex_shape.hpp
/// \brief Trilinear hexahedron shape functions and 2x2x2 Gauss quadrature.
///
/// Shared by the mesh geometry checks and the FEM assembly.  Reference
/// element is [-1,1]^3 with nodes in VTK ordering.

#include <array>

#include "alya/mesh.hpp"

namespace hpcs::alya::hex {

/// Reference coordinates of the 8 nodes.
inline constexpr std::array<std::array<double, 3>, 8> kNodeXi = {{
    {-1, -1, -1},
    {+1, -1, -1},
    {+1, +1, -1},
    {-1, +1, -1},
    {-1, -1, +1},
    {+1, -1, +1},
    {+1, +1, +1},
    {-1, +1, +1},
}};

/// 2-point Gauss abscissa.
inline constexpr double kGauss = 0.5773502691896257;  // 1/sqrt(3)

/// Shape function values at reference point (xi, eta, zeta).
std::array<double, 8> shape(double xi, double eta, double zeta) noexcept;

/// Shape function derivatives w.r.t. reference coordinates: dN[i][d].
std::array<std::array<double, 3>, 8> shape_deriv(double xi, double eta,
                                                 double zeta) noexcept;

struct JacobianResult {
  double det = 0.0;                          ///< |J| at the point
  std::array<std::array<double, 3>, 8> dNdx{};  ///< physical-space gradients
};

/// Jacobian, determinant, and physical gradients at a reference point for
/// the hex with corner coordinates \p x.
JacobianResult jacobian(const std::array<Vec3, 8>& x, double xi, double eta,
                        double zeta);

/// The 8 Gauss points of the 2x2x2 rule (each has unit weight).
std::array<std::array<double, 3>, 8> gauss_points() noexcept;

/// Gathers the corner coordinates of element \p e.
std::array<Vec3, 8> gather_coords(const Mesh& mesh, Index e);

}  // namespace hpcs::alya::hex
