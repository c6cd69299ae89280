// Mesh-refinement convergence study: the FEM discretization must converge
// at second order in h for the Poisson problem with a manufactured
// solution — the strongest single check that assembly, quadrature, and
// the solver work together correctly.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "alya/fem.hpp"
#include "alya/solvers.hpp"
#include "sim/stats.hpp"

namespace ha = hpcs::alya;

namespace {

ha::Mesh unit_cube(int n) {
  std::vector<ha::Vec3> nodes;
  std::vector<ha::Hex> elems;
  const int nn = n + 1;
  for (int k = 0; k <= n; ++k)
    for (int j = 0; j <= n; ++j)
      for (int i = 0; i <= n; ++i)
        nodes.push_back(ha::Vec3{double(i) / n, double(j) / n,
                                 double(k) / n});
  auto id = [&](int i, int j, int k) {
    return static_cast<ha::Index>((k * nn + j) * nn + i);
  };
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        elems.push_back(ha::Hex{id(i, j, k), id(i + 1, j, k),
                                id(i + 1, j + 1, k), id(i, j + 1, k),
                                id(i, j, k + 1), id(i + 1, j, k + 1),
                                id(i + 1, j + 1, k + 1),
                                id(i, j + 1, k + 1)});
  return ha::Mesh(std::move(nodes), std::move(elems));
}

constexpr double kPi = std::numbers::pi;

double exact(const ha::Vec3& p) {
  return std::sin(kPi * p.x) * std::sin(kPi * p.y) * std::sin(kPi * p.z);
}

/// Solves -lap(u) = 3 pi^2 exact with homogeneous Dirichlet boundary and
/// returns the mass-weighted L2 error.
double poisson_l2_error(int n) {
  const auto mesh = unit_cube(n);
  const ha::MeshGeometry geometry(mesh);
  auto K = ha::assemble_laplacian(geometry);
  const auto& m = geometry.lumped_mass();
  const auto nn = static_cast<std::size_t>(mesh.node_count());

  std::vector<double> rhs(nn);
  for (std::size_t i = 0; i < nn; ++i)
    rhs[i] = 3.0 * kPi * kPi * exact(mesh.node(static_cast<ha::Index>(i))) *
             m[i];

  std::vector<ha::Index> bc;
  for (ha::Index i = 0; i < mesh.node_count(); ++i) {
    const auto& p = mesh.node(i);
    const double eps = 1e-12;
    if (p.x < eps || p.x > 1 - eps || p.y < eps || p.y > 1 - eps ||
        p.z < eps || p.z > 1 - eps)
      bc.push_back(i);
  }
  const std::vector<double> zeros(bc.size(), 0.0);
  K.apply_dirichlet(bc, zeros, rhs);

  std::vector<double> u(nn, 0.0);
  ha::SolverOptions opts;
  opts.rel_tolerance = 1e-12;
  opts.max_iterations = 20000;
  const auto st = ha::conjugate_gradient(K, rhs, u, opts);
  if (!st.converged) throw std::runtime_error("poisson did not converge");

  double err2 = 0.0, vol = 0.0;
  for (std::size_t i = 0; i < nn; ++i) {
    const double e = u[i] - exact(mesh.node(static_cast<ha::Index>(i)));
    err2 += m[i] * e * e;
    vol += m[i];
  }
  return std::sqrt(err2 / vol);
}

}  // namespace

TEST(Convergence, PoissonSecondOrderInH) {
  const double e4 = poisson_l2_error(4);
  const double e8 = poisson_l2_error(8);
  const double e16 = poisson_l2_error(16);
  // Halving h must divide the error by ~4 (second order); accept 3.2+.
  EXPECT_GT(e4 / e8, 3.2) << "e4=" << e4 << " e8=" << e8;
  EXPECT_GT(e8 / e16, 3.2) << "e8=" << e8 << " e16=" << e16;
  // And the fit of log(err) vs log(h) has slope ~2.
  std::vector<double> lh{std::log(1.0 / 4), std::log(1.0 / 8),
                         std::log(1.0 / 16)};
  std::vector<double> le{std::log(e4), std::log(e8), std::log(e16)};
  const auto fit = hpcs::sim::fit_line(lh, le);
  EXPECT_NEAR(fit.slope, 2.0, 0.25);
  EXPECT_GT(fit.r2, 0.999);
}

TEST(Convergence, ErrorsAreSmallInAbsoluteTerms) {
  EXPECT_LT(poisson_l2_error(8), 0.03);
}
