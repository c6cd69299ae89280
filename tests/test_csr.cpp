// CSR matrix: pattern construction, SpMV (serial & threaded), Dirichlet
// elimination, instrumentation.

#include <gtest/gtest.h>

#include <cmath>

#include "alya/csr.hpp"
#include "alya/fem.hpp"
#include "alya/solvers.hpp"
#include "alya/tube_mesh.hpp"

namespace ha = hpcs::alya;

namespace {
/// 1D 3-point Laplacian pattern of size n.
std::vector<std::vector<ha::Index>> chain_pattern(ha::Index n) {
  std::vector<std::vector<ha::Index>> adj(static_cast<std::size_t>(n));
  for (ha::Index i = 0; i < n; ++i) {
    auto& row = adj[static_cast<std::size_t>(i)];
    if (i > 0) row.push_back(i - 1);
    row.push_back(i);
    if (i < n - 1) row.push_back(i + 1);
  }
  return adj;
}

ha::CsrMatrix chain_laplacian(ha::Index n) {
  auto m = ha::CsrMatrix::from_pattern(chain_pattern(n));
  for (ha::Index i = 0; i < n; ++i) {
    m.add(i, i, 2.0);
    if (i > 0) m.add(i, i - 1, -1.0);
    if (i < n - 1) m.add(i, i + 1, -1.0);
  }
  return m;
}
}  // namespace

TEST(Csr, PatternBasics) {
  const auto m = ha::CsrMatrix::from_pattern(chain_pattern(5));
  EXPECT_EQ(m.rows(), 5);
  EXPECT_EQ(m.nnz(), 13);
}

TEST(Csr, PatternRequiresSortedWithDiagonal) {
  std::vector<std::vector<ha::Index>> unsorted{{1, 0}, {0, 1}};
  EXPECT_THROW(ha::CsrMatrix::from_pattern(unsorted), std::invalid_argument);
  std::vector<std::vector<ha::Index>> nodiag{{1}, {0, 1}};
  EXPECT_THROW(ha::CsrMatrix::from_pattern(nodiag), std::invalid_argument);
}

TEST(Csr, AddGet) {
  auto m = chain_laplacian(4);
  EXPECT_DOUBLE_EQ(m.get(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.get(1, 2), -1.0);
  EXPECT_DOUBLE_EQ(m.get(0, 3), 0.0);  // outside pattern reads zero
  m.add(1, 1, 0.5);
  EXPECT_DOUBLE_EQ(m.get(1, 1), 2.5);
  EXPECT_THROW(m.add(0, 3, 1.0), std::out_of_range);
}

TEST(Csr, ClearValuesKeepsPattern) {
  auto m = chain_laplacian(4);
  m.clear_values();
  EXPECT_EQ(m.nnz(), 10);
  EXPECT_DOUBLE_EQ(m.get(1, 1), 0.0);
}

TEST(Csr, SpmvKnownResult) {
  const auto m = chain_laplacian(4);
  std::vector<double> x{1, 2, 3, 4}, y(4);
  m.spmv(x, y);
  EXPECT_DOUBLE_EQ(y[0], 0.0);   // 2*1 - 2
  EXPECT_DOUBLE_EQ(y[1], 0.0);   // -1 + 4 - 3
  EXPECT_DOUBLE_EQ(y[2], 0.0);
  EXPECT_DOUBLE_EQ(y[3], 5.0);   // -3 + 8
}

TEST(Csr, SpmvThreadedMatchesSerial) {
  const auto mesh = ha::lumen_mesh(ha::TubeParams{});
  const auto K = ha::assemble_laplacian(ha::MeshGeometry(mesh));
  std::vector<double> x(static_cast<std::size_t>(K.rows()));
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(static_cast<double>(i));
  std::vector<double> y1(x.size()), y4(x.size());
  K.spmv(x, y1);
  ha::ThreadPool pool(4);
  K.spmv(x, y4, &pool);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_DOUBLE_EQ(y1[i], y4[i]);
}

TEST(Csr, SpmvSizeChecked) {
  const auto m = chain_laplacian(4);
  std::vector<double> x(3), y(4);
  EXPECT_THROW(m.spmv(x, y), std::invalid_argument);
}

TEST(Csr, Diagonal) {
  const auto m = chain_laplacian(4);
  const auto d = m.diagonal();
  for (double v : d) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(Csr, DirichletEliminationKeepsSymmetryAndSolution) {
  // Solve -u'' = 0 with u(0)=1, u(4)=5 on the 1D chain -> linear profile.
  auto m = chain_laplacian(5);
  std::vector<double> rhs(5, 0.0);
  m.apply_dirichlet({0, 4}, {1.0, 5.0}, rhs);
  // Symmetry preserved:
  for (ha::Index i = 0; i < 5; ++i)
    for (ha::Index j = 0; j < 5; ++j)
      EXPECT_DOUBLE_EQ(m.get(i, j), m.get(j, i));
  // Constrained rows are identity:
  EXPECT_DOUBLE_EQ(m.get(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.get(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(rhs[0], 1.0);
  EXPECT_DOUBLE_EQ(rhs[4], 5.0);
  // RHS shifted by the eliminated column: row 1 had -1 * u(0).
  EXPECT_DOUBLE_EQ(rhs[1], 1.0);
  EXPECT_DOUBLE_EQ(rhs[3], 5.0);

  ha::SolverOptions opts;
  std::vector<double> x(5, 0.0);
  const auto st = ha::conjugate_gradient(m, rhs, x, opts);
  ASSERT_TRUE(st.converged);
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(x[static_cast<std::size_t>(i)], 1.0 + i, 1e-7);
}

TEST(Csr, DirichletValidation) {
  auto m = chain_laplacian(3);
  std::vector<double> rhs(3);
  EXPECT_THROW(m.apply_dirichlet({0}, {1.0, 2.0}, rhs),
               std::invalid_argument);
  EXPECT_THROW(m.apply_dirichlet({7}, {1.0}, rhs), std::out_of_range);
}

TEST(Csr, InstrumentationCounts) {
  const auto m = chain_laplacian(100);
  EXPECT_DOUBLE_EQ(m.spmv_flops(), 2.0 * static_cast<double>(m.nnz()));
  EXPECT_GT(m.spmv_bytes(), 24.0 * static_cast<double>(m.nnz()));
}
