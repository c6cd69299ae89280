#include "alya/solvers.hpp"

#include <cmath>
#include <stdexcept>

namespace hpcs::alya {

void SolverOptions::validate() const {
  if (max_iterations < 1)
    throw std::invalid_argument("SolverOptions: max_iterations < 1");
  if (rel_tolerance <= 0 || rel_tolerance >= 1)
    throw std::invalid_argument("SolverOptions: rel_tolerance in (0,1)");
}

double dot(std::span<const double> a, std::span<const double> b,
           ThreadPool* pool) {
  if (a.size() != b.size())
    throw std::invalid_argument("dot: size mismatch");
  if (!pool || pool->thread_count() == 1) {
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
  }
  const auto t = static_cast<std::size_t>(pool->thread_count());
  std::vector<double> partial(t, 0.0);
  const std::size_t chunk = (a.size() + t - 1) / t;
  pool->parallel_for(a.size(), [&](std::size_t begin, std::size_t end) {
    double s = 0.0;
    for (std::size_t i = begin; i < end; ++i) s += a[i] * b[i];
    partial[begin / chunk] = s;
  });
  double s = 0.0;
  for (double v : partial) s += v;  // fixed order: deterministic
  return s;
}

void axpy(double alpha, std::span<const double> x, std::span<double> y,
          ThreadPool* pool) {
  if (x.size() != y.size())
    throw std::invalid_argument("axpy: size mismatch");
  auto body = [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) y[i] += alpha * x[i];
  };
  if (pool)
    pool->parallel_for(x.size(), body);
  else
    body(0, x.size());
}

void xpby(std::span<const double> x, double beta, std::span<double> y,
          ThreadPool* pool) {
  if (x.size() != y.size())
    throw std::invalid_argument("xpby: size mismatch");
  auto body = [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) y[i] = x[i] + beta * y[i];
  };
  if (pool)
    pool->parallel_for(x.size(), body);
  else
    body(0, x.size());
}

double norm2(std::span<const double> a, ThreadPool* pool) {
  return std::sqrt(dot(a, a, pool));
}

namespace {

/// Accumulates kernel costs into stats.
struct Accounting {
  const CsrMatrix& A;
  SolveStats& s;
  double n;  // vector length

  void spmv() {
    ++s.spmv_count;
    s.flops += A.spmv_flops();
    s.mem_bytes += A.spmv_bytes();
  }
  void dot() {
    ++s.dot_count;
    s.flops += 2.0 * n;
    s.mem_bytes += 16.0 * n;
  }
  void axpy() {
    ++s.axpy_count;
    s.flops += 2.0 * n;
    s.mem_bytes += 24.0 * n;
  }
  void pointwise() {  // preconditioner application / copies
    s.flops += n;
    s.mem_bytes += 24.0 * n;
  }
};

}  // namespace

SolveStats conjugate_gradient(const CsrMatrix& A, std::span<const double> b,
                              std::span<double> x, const SolverOptions& opts,
                              ThreadPool* pool) {
  opts.validate();
  const auto n = static_cast<std::size_t>(A.rows());
  if (b.size() != n || x.size() != n)
    throw std::invalid_argument("conjugate_gradient: size mismatch");

  SolveStats stats;
  Accounting acct{A, stats, static_cast<double>(n)};

  std::vector<double> diag_inv;
  if (opts.use_jacobi) {
    diag_inv = A.diagonal();
    for (auto& d : diag_inv) {
      if (d == 0.0)
        throw std::runtime_error("conjugate_gradient: zero diagonal");
      d = 1.0 / d;
    }
  }
  auto precond = [&](std::span<const double> r, std::span<double> z) {
    if (opts.use_jacobi) {
      for (std::size_t i = 0; i < n; ++i) z[i] = diag_inv[i] * r[i];
    } else {
      std::copy(r.begin(), r.end(), z.begin());
    }
    acct.pointwise();
  };

  std::vector<double> r(n), z(n), p(n), q(n);
  // r = b - A x
  A.spmv(x, r, pool);
  acct.spmv();
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  acct.axpy();

  const double bnorm = norm2(b, pool);
  acct.dot();
  if (bnorm == 0.0) {
    std::fill(x.begin(), x.end(), 0.0);
    stats.converged = true;
    return stats;
  }

  precond(r, z);
  p = z;
  double rz = dot(r, z, pool);
  acct.dot();

  for (int it = 0; it < opts.max_iterations; ++it) {
    A.spmv(p, q, pool);
    acct.spmv();
    const double pq = dot(p, q, pool);
    acct.dot();
    if (pq <= 0.0)
      throw std::runtime_error(
          "conjugate_gradient: matrix not positive definite");
    const double alpha = rz / pq;
    axpy(alpha, p, x, pool);
    acct.axpy();
    axpy(-alpha, q, r, pool);
    acct.axpy();

    const double rnorm = norm2(r, pool);
    acct.dot();
    stats.iterations = it + 1;
    stats.final_relative_residual = rnorm / bnorm;
    if (stats.final_relative_residual < opts.rel_tolerance) {
      stats.converged = true;
      return stats;
    }

    precond(r, z);
    const double rz_new = dot(r, z, pool);
    acct.dot();
    const double beta = rz_new / rz;
    rz = rz_new;
    xpby(z, beta, p, pool);
    acct.axpy();
  }
  return stats;
}

}  // namespace hpcs::alya
