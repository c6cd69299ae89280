#include "alya/fem.hpp"

#include <stdexcept>

namespace hpcs::alya {

MeshGeometry::MeshGeometry(const Mesh& mesh)
    : mesh_(mesh), mass_(static_cast<std::size_t>(mesh.node_count()), 0.0) {
  const auto gps = hex::gauss_points();
  for (std::size_t q = 0; q < 8; ++q)
    shape_[q] = hex::shape(gps[q][0], gps[q][1], gps[q][2]);
  points_.reserve(8 * static_cast<std::size_t>(mesh.element_count()));
  for (Index e = 0; e < mesh.element_count(); ++e) {
    const auto coords = hex::gather_coords(mesh, e);
    const auto& conn = mesh.element(e);
    for (std::size_t q = 0; q < 8; ++q) {
      const auto& j = points_.emplace_back(
          hex::jacobian(coords, gps[q][0], gps[q][1], gps[q][2]));
      for (std::size_t a = 0; a < 8; ++a)
        mass_[static_cast<std::size_t>(conn[a])] += shape_[q][a] * j.det;
    }
  }
}

CsrMatrix assemble_laplacian(const MeshGeometry& geometry) {
  const Mesh& mesh = geometry.mesh();
  CsrMatrix K = CsrMatrix::from_pattern(mesh.node_adjacency());
  for (Index e = 0; e < mesh.element_count(); ++e) {
    const auto& conn = mesh.element(e);
    double ke[8][8] = {};
    for (std::size_t q = 0; q < 8; ++q) {
      const auto& j = geometry.point(e, q);
      for (std::size_t a = 0; a < 8; ++a)
        for (std::size_t b = 0; b < 8; ++b) {
          double g = 0.0;
          for (std::size_t d = 0; d < 3; ++d)
            g += j.dNdx[a][d] * j.dNdx[b][d];
          ke[a][b] += g * j.det;
        }
    }
    for (std::size_t a = 0; a < 8; ++a)
      for (std::size_t b = 0; b < 8; ++b)
        K.add(conn[a], conn[b], ke[a][b]);
  }
  return K;
}

std::vector<Vec3> nodal_gradient(const MeshGeometry& geometry,
                                 std::span<const double> p) {
  const Mesh& mesh = geometry.mesh();
  const auto nn = static_cast<std::size_t>(mesh.node_count());
  if (p.size() != nn)
    throw std::invalid_argument("nodal_gradient: size mismatch");
  std::vector<Vec3> g(nn, Vec3{});
  const auto& m = geometry.lumped_mass();
  for (Index e = 0; e < mesh.element_count(); ++e) {
    const auto& conn = mesh.element(e);
    for (std::size_t q = 0; q < 8; ++q) {
      const auto& n = geometry.shape(q);
      const auto& j = geometry.point(e, q);
      Vec3 gradp{};
      for (std::size_t b = 0; b < 8; ++b) {
        const double pb = p[static_cast<std::size_t>(conn[b])];
        gradp.x += j.dNdx[b][0] * pb;
        gradp.y += j.dNdx[b][1] * pb;
        gradp.z += j.dNdx[b][2] * pb;
      }
      for (std::size_t a = 0; a < 8; ++a) {
        const double w = n[a] * j.det;
        auto& ga = g[static_cast<std::size_t>(conn[a])];
        ga = ga + gradp * w;
      }
    }
  }
  for (std::size_t i = 0; i < nn; ++i)
    if (m[i] > 0) g[i] = g[i] * (1.0 / m[i]);
  return g;
}

std::vector<double> nodal_divergence(const MeshGeometry& geometry,
                                     std::span<const Vec3> u) {
  const Mesh& mesh = geometry.mesh();
  const auto nn = static_cast<std::size_t>(mesh.node_count());
  if (u.size() != nn)
    throw std::invalid_argument("nodal_divergence: size mismatch");
  std::vector<double> d(nn, 0.0);
  const auto& m = geometry.lumped_mass();
  for (Index e = 0; e < mesh.element_count(); ++e) {
    const auto& conn = mesh.element(e);
    for (std::size_t q = 0; q < 8; ++q) {
      const auto& n = geometry.shape(q);
      const auto& j = geometry.point(e, q);
      double div = 0.0;
      for (std::size_t b = 0; b < 8; ++b) {
        const Vec3& ub = u[static_cast<std::size_t>(conn[b])];
        div += j.dNdx[b][0] * ub.x + j.dNdx[b][1] * ub.y +
               j.dNdx[b][2] * ub.z;
      }
      for (std::size_t a = 0; a < 8; ++a)
        d[static_cast<std::size_t>(conn[a])] += n[a] * j.det * div;
    }
  }
  for (std::size_t i = 0; i < nn; ++i)
    if (m[i] > 0) d[i] /= m[i];
  return d;
}

std::vector<Vec3> advection_term(const MeshGeometry& geometry,
                                 std::span<const Vec3> u) {
  const Mesh& mesh = geometry.mesh();
  const auto nn = static_cast<std::size_t>(mesh.node_count());
  if (u.size() != nn)
    throw std::invalid_argument("advection_term: size mismatch");
  std::vector<Vec3> adv(nn, Vec3{});
  const auto& m = geometry.lumped_mass();
  for (Index e = 0; e < mesh.element_count(); ++e) {
    const auto& conn = mesh.element(e);
    for (std::size_t q = 0; q < 8; ++q) {
      const auto& n = geometry.shape(q);
      const auto& j = geometry.point(e, q);
      // u at the Gauss point and its gradient tensor.
      Vec3 ug{};
      double grad[3][3] = {};
      for (std::size_t b = 0; b < 8; ++b) {
        const Vec3& ub = u[static_cast<std::size_t>(conn[b])];
        ug = ug + ub * n[b];
        const double c[3] = {ub.x, ub.y, ub.z};
        for (std::size_t comp = 0; comp < 3; ++comp)
          for (std::size_t d = 0; d < 3; ++d)
            grad[comp][d] += j.dNdx[b][d] * c[comp];
      }
      const Vec3 conv{
          ug.x * grad[0][0] + ug.y * grad[0][1] + ug.z * grad[0][2],
          ug.x * grad[1][0] + ug.y * grad[1][1] + ug.z * grad[1][2],
          ug.x * grad[2][0] + ug.y * grad[2][1] + ug.z * grad[2][2]};
      for (std::size_t a = 0; a < 8; ++a) {
        const double w = n[a] * j.det;
        auto& v = adv[static_cast<std::size_t>(conn[a])];
        v = v + conv * w;
      }
    }
  }
  for (std::size_t i = 0; i < nn; ++i)
    if (m[i] > 0) adv[i] = adv[i] * (1.0 / m[i]);
  return adv;
}

CsrMatrix assemble_elasticity(const Mesh& mesh, double E, double nu) {
  if (E <= 0 || nu <= 0 || nu >= 0.5)
    throw std::invalid_argument("assemble_elasticity: bad material");
  CsrMatrix K = CsrMatrix::from_node_blocks(mesh.node_adjacency());

  // Isotropic elasticity matrix D (Voigt: xx, yy, zz, xy, yz, zx).
  const double lambda = E * nu / ((1 + nu) * (1 - 2 * nu));
  const double mu = E / (2 * (1 + nu));
  double D[6][6] = {};
  for (int a = 0; a < 3; ++a)
    for (int b = 0; b < 3; ++b)
      D[a][b] = lambda + (a == b ? 2 * mu : 0.0);
  for (int a = 3; a < 6; ++a) D[a][a] = mu;

  for (Index e = 0; e < mesh.element_count(); ++e) {
    const auto coords = hex::gather_coords(mesh, e);
    const auto& conn = mesh.element(e);
    double ke[24][24] = {};
    for (const auto& gp : hex::gauss_points()) {
      const auto j = hex::jacobian(coords, gp[0], gp[1], gp[2]);
      // B matrix (6 x 24): strain = B * u_e.
      double B[6][24] = {};
      for (std::size_t a = 0; a < 8; ++a) {
        const double dx = j.dNdx[a][0], dy = j.dNdx[a][1], dz = j.dNdx[a][2];
        const std::size_t c = 3 * a;
        B[0][c + 0] = dx;
        B[1][c + 1] = dy;
        B[2][c + 2] = dz;
        B[3][c + 0] = dy;
        B[3][c + 1] = dx;
        B[4][c + 1] = dz;
        B[4][c + 2] = dy;
        B[5][c + 0] = dz;
        B[5][c + 2] = dx;
      }
      // ke += B^T D B * det
      double DB[6][24];
      for (std::size_t r = 0; r < 6; ++r)
        for (std::size_t c = 0; c < 24; ++c) {
          double s = 0.0;
          for (std::size_t k = 0; k < 6; ++k) s += D[r][k] * B[k][c];
          DB[r][c] = s;
        }
      for (std::size_t r = 0; r < 24; ++r)
        for (std::size_t c = 0; c < 24; ++c) {
          double s = 0.0;
          for (std::size_t k = 0; k < 6; ++k) s += B[k][r] * DB[k][c];
          ke[r][c] += s * j.det;
        }
    }
    for (std::size_t a = 0; a < 8; ++a)
      for (std::size_t b = 0; b < 8; ++b)
        for (Index ca = 0; ca < 3; ++ca)
          for (Index cb = 0; cb < 3; ++cb)
            K.add(3 * conn[a] + ca, 3 * conn[b] + cb,
                  ke[3 * a + static_cast<std::size_t>(ca)]
                    [3 * b + static_cast<std::size_t>(cb)]);
  }
  return K;
}

}  // namespace hpcs::alya
