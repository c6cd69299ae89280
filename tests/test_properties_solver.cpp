// Property sweeps over mesh resolutions: solver and FEM invariants that
// must hold at any discretization.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "alya/fem.hpp"
#include "alya/partition.hpp"
#include "alya/solvers.hpp"
#include "alya/tube_mesh.hpp"

namespace ha = hpcs::alya;

namespace {

struct MeshCase {
  int cross;
  int axial;
};

class MeshProperty : public ::testing::TestWithParam<MeshCase> {
 protected:
  ha::Mesh make() const {
    return ha::lumen_mesh(ha::TubeParams{.radius = 1.0,
                                         .length = 3.0,
                                         .cross_cells = GetParam().cross,
                                         .axial_cells = GetParam().axial});
  }
};

std::string mesh_name(const ::testing::TestParamInfo<MeshCase>& info) {
  return "c" + std::to_string(info.param.cross) + "a" +
         std::to_string(info.param.axial);
}

}  // namespace

TEST_P(MeshProperty, MassEqualsVolume) {
  const auto mesh = make();
  const ha::MeshGeometry geometry(mesh);
  double total = 0;
  for (double v : geometry.lumped_mass()) total += v;
  EXPECT_NEAR(total, mesh.total_volume(), 1e-9 * total);
}

TEST_P(MeshProperty, LaplacianAnnihilatesConstants) {
  const auto mesh = make();
  const auto K = ha::assemble_laplacian(ha::MeshGeometry(mesh));
  std::vector<double> ones(static_cast<std::size_t>(K.rows()), 1.0),
      y(ones.size());
  K.spmv(ones, y);
  for (double v : y) EXPECT_NEAR(v, 0.0, 1e-8);
}

TEST_P(MeshProperty, PoissonSolveConverges) {
  // Dirichlet Poisson problem with the inlet/outlet groups as boundary:
  // CG with Jacobi must converge and reproduce the linear axial profile.
  const auto mesh = make();
  auto K = ha::assemble_laplacian(ha::MeshGeometry(mesh));
  const auto nn = static_cast<std::size_t>(mesh.node_count());
  std::vector<double> rhs(nn, 0.0);
  std::vector<ha::Index> dofs;
  std::vector<double> vals;
  for (ha::Index v : mesh.node_group("inlet")) {
    dofs.push_back(v);
    vals.push_back(1.0);
  }
  for (ha::Index v : mesh.node_group("outlet")) {
    dofs.push_back(v);
    vals.push_back(0.0);
  }
  K.apply_dirichlet(dofs, vals, rhs);
  std::vector<double> x(nn, 0.0);
  ha::SolverOptions opts;
  opts.rel_tolerance = 1e-10;
  opts.max_iterations = 5000;
  const auto st = ha::conjugate_gradient(K, rhs, x, opts);
  ASSERT_TRUE(st.converged);
  // Harmonic function with linear boundary data in a straight tube is
  // linear in z.
  for (ha::Index i = 0; i < mesh.node_count(); ++i) {
    const double z = mesh.node(i).z;
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], 1.0 - z / 3.0, 1e-4);
  }
}

TEST_P(MeshProperty, GradientExactForLinearFields) {
  const auto mesh = make();
  std::vector<double> f;
  for (const auto& p : mesh.nodes()) f.push_back(2.0 * p.z - 1.0);
  const auto g = ha::nodal_gradient(ha::MeshGeometry(mesh), f);
  // Interior nodes only (boundary lumping is first-order).
  for (ha::Index i = 0; i < mesh.node_count(); ++i) {
    const auto& p = mesh.node(i);
    if (p.z < 0.3 || p.z > 2.7 || std::hypot(p.x, p.y) > 0.8) continue;
    EXPECT_NEAR(g[static_cast<std::size_t>(i)].z, 2.0, 0.05);
  }
}

TEST_P(MeshProperty, PartitionBalancedAtAnyCount) {
  const auto mesh = make();
  for (int parts : {2, 5, 8}) {
    if (mesh.element_count() < parts) continue;
    ha::MeshPartition part(mesh, parts);
    EXPECT_LT(part.element_imbalance(), 1.15)
        << parts << " parts on " << mesh.element_count() << " elements";
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, MeshProperty,
                         ::testing::Values(MeshCase{4, 4}, MeshCase{6, 8},
                                           MeshCase{8, 6}, MeshCase{10, 12}),
                         mesh_name);
