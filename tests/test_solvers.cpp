// The CG solver: convergence on SPD systems, operation
// accounting, vector kernel correctness.

#include <gtest/gtest.h>

#include <cmath>

#include "alya/fem.hpp"
#include "alya/solvers.hpp"
#include "alya/tube_mesh.hpp"

namespace ha = hpcs::alya;

namespace {
ha::CsrMatrix spd_system(ha::Index n) {
  std::vector<std::vector<ha::Index>> adj(static_cast<std::size_t>(n));
  for (ha::Index i = 0; i < n; ++i) {
    auto& row = adj[static_cast<std::size_t>(i)];
    if (i > 0) row.push_back(i - 1);
    row.push_back(i);
    if (i < n - 1) row.push_back(i + 1);
  }
  auto m = ha::CsrMatrix::from_pattern(adj);
  for (ha::Index i = 0; i < n; ++i) {
    m.add(i, i, 4.0 + 0.01 * static_cast<double>(i));
    if (i > 0) m.add(i, i - 1, -1.0);
    if (i < n - 1) m.add(i, i + 1, -1.0);
  }
  return m;
}
}  // namespace

TEST(VectorKernels, DotAxpyNorm) {
  std::vector<double> a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ(ha::dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(ha::norm2(a), std::sqrt(14.0));
  ha::axpy(2.0, a, b);
  EXPECT_DOUBLE_EQ(b[0], 6.0);
  EXPECT_DOUBLE_EQ(b[2], 12.0);
  std::vector<double> y{1, 1, 1};
  ha::xpby(a, 3.0, y);  // y = a + 3y
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[2], 6.0);
}

TEST(VectorKernels, ThreadedDotMatchesSerial) {
  std::vector<double> a(10007), b(10007);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = std::sin(static_cast<double>(i));
    b[i] = std::cos(static_cast<double>(i) * 0.5);
  }
  ha::ThreadPool pool(4);
  EXPECT_NEAR(ha::dot(a, b, &pool), ha::dot(a, b), 1e-9);
}

TEST(VectorKernels, SizeChecks) {
  std::vector<double> a{1, 2}, b{1};
  EXPECT_THROW(ha::dot(a, b), std::invalid_argument);
  std::vector<double> y{1};
  EXPECT_THROW(ha::axpy(1.0, a, y), std::invalid_argument);
  EXPECT_THROW(ha::xpby(a, 1.0, y), std::invalid_argument);
}

TEST(Cg, SolvesSpdSystem) {
  const auto A = spd_system(200);
  std::vector<double> x_true(200);
  for (std::size_t i = 0; i < 200; ++i)
    x_true[i] = std::sin(0.1 * static_cast<double>(i));
  std::vector<double> b(200), x(200, 0.0);
  A.spmv(x_true, b);
  ha::SolverOptions opts;
  opts.rel_tolerance = 1e-12;
  const auto st = ha::conjugate_gradient(A, b, x, opts);
  ASSERT_TRUE(st.converged);
  for (std::size_t i = 0; i < 200; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
  EXPECT_GT(st.iterations, 0);
  EXPECT_LT(st.final_relative_residual, 1e-12);
}

TEST(Cg, JacobiReducesIterationsOnScaledSystem) {
  // Badly scaled diagonal: Jacobi should help substantially.
  const ha::Index n = 300;
  std::vector<std::vector<ha::Index>> adj(static_cast<std::size_t>(n));
  for (ha::Index i = 0; i < n; ++i) {
    auto& row = adj[static_cast<std::size_t>(i)];
    if (i > 0) row.push_back(i - 1);
    row.push_back(i);
    if (i < n - 1) row.push_back(i + 1);
  }
  auto A = ha::CsrMatrix::from_pattern(adj);
  // A = D^{1/2} L D^{1/2} with L the 1D Laplacian and a smoothly varying
  // scaling: SPD, condition inflated by the scaling spread; Jacobi undoes
  // the scaling.
  auto scale = [&](ha::Index i) {
    const double t = static_cast<double>(i) / static_cast<double>(n - 1);
    return 1.0 + 999.0 * t * t;
  };
  for (ha::Index i = 0; i < n; ++i) {
    const double si = std::sqrt(scale(i));
    A.add(i, i, 2.2 * si * si);
    if (i > 0) A.add(i, i - 1, -1.0 * si * std::sqrt(scale(i - 1)));
    if (i < n - 1) A.add(i, i + 1, -1.0 * si * std::sqrt(scale(i + 1)));
  }
  std::vector<double> b(static_cast<std::size_t>(n), 1.0);
  ha::SolverOptions with, without;
  with.use_jacobi = true;
  without.use_jacobi = false;
  std::vector<double> x1(static_cast<std::size_t>(n), 0.0),
      x2(static_cast<std::size_t>(n), 0.0);
  const auto s1 = ha::conjugate_gradient(A, b, x1, with);
  const auto s2 = ha::conjugate_gradient(A, b, x2, without);
  ASSERT_TRUE(s1.converged);
  ASSERT_TRUE(s2.converged);
  EXPECT_LT(s1.iterations, s2.iterations);
}

TEST(Cg, ZeroRhsGivesZero) {
  const auto A = spd_system(10);
  std::vector<double> b(10, 0.0), x(10, 5.0);
  const auto st = ha::conjugate_gradient(A, b, x, ha::SolverOptions{});
  EXPECT_TRUE(st.converged);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Cg, ReportsNonConvergence) {
  const auto A = spd_system(500);
  std::vector<double> b(500, 1.0), x(500, 0.0);
  ha::SolverOptions opts;
  opts.max_iterations = 2;
  opts.rel_tolerance = 1e-14;
  const auto st = ha::conjugate_gradient(A, b, x, opts);
  EXPECT_FALSE(st.converged);
  EXPECT_EQ(st.iterations, 2);
}

TEST(Cg, RejectsIndefiniteMatrix) {
  std::vector<std::vector<ha::Index>> adj{{0}, {1}};
  auto A = ha::CsrMatrix::from_pattern(adj);
  A.add(0, 0, 1.0);
  A.add(1, 1, -1.0);
  std::vector<double> b{1, 1}, x{0, 0};
  ha::SolverOptions opts;
  opts.use_jacobi = false;
  EXPECT_THROW(ha::conjugate_gradient(A, b, x, opts), std::runtime_error);
}

TEST(Cg, CountsOperations) {
  const auto A = spd_system(100);
  std::vector<double> b(100, 1.0), x(100, 0.0);
  const auto st = ha::conjugate_gradient(A, b, x, ha::SolverOptions{});
  ASSERT_TRUE(st.converged);
  // One SpMV per iteration plus the initial residual.
  EXPECT_EQ(st.spmv_count, static_cast<std::uint64_t>(st.iterations) + 1);
  // Three dots per iteration (pq, ||r||, rz) plus setup.
  EXPECT_GE(st.dot_count, 3u * static_cast<std::uint64_t>(st.iterations));
  EXPECT_GT(st.flops, 0.0);
  EXPECT_GT(st.mem_bytes, st.flops);  // memory-bound kernel mix
}

TEST(Cg, WarmStartFewerIterations) {
  const auto A = spd_system(300);
  std::vector<double> b(300, 1.0), x_cold(300, 0.0);
  ha::SolverOptions opts;
  const auto cold = ha::conjugate_gradient(A, b, x_cold, opts);
  ASSERT_TRUE(cold.converged);
  std::vector<double> x_warm = x_cold;  // exact solution as the guess
  const auto warm = ha::conjugate_gradient(A, b, x_warm, opts);
  EXPECT_LT(warm.iterations, cold.iterations / 4 + 2);
}

TEST(Solvers, OptionValidation) {
  ha::SolverOptions o;
  o.max_iterations = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = ha::SolverOptions{};
  o.rel_tolerance = 1.5;
  EXPECT_THROW(o.validate(), std::invalid_argument);
}

TEST(Solvers, SizeMismatchChecked) {
  const auto A = spd_system(10);
  std::vector<double> b(9), x(10);
  EXPECT_THROW(ha::conjugate_gradient(A, b, x, ha::SolverOptions{}),
               std::invalid_argument);
}
