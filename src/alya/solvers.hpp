#pragma once

/// \file solvers.hpp
/// \brief The Krylov solver (CG) with Jacobi preconditioning and
///        full operation accounting.
///
/// Alya's implicit stages (pressure Poisson, elasticity) are Krylov solves;
/// the per-iteration communication pattern — one SpMV (halo exchange) and
/// two global dot products (allreduce) for CG — is what couples the solver
/// to the interconnect and therefore what the container study stresses.
/// SolveStats records both convergence and the operation counts the
/// performance model consumes.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "alya/csr.hpp"

namespace hpcs::alya {

struct SolverOptions {
  int max_iterations = 2000;
  double rel_tolerance = 1e-8;  ///< on ||r|| / ||b||
  bool use_jacobi = true;

  void validate() const;
};

struct SolveStats {
  bool converged = false;
  int iterations = 0;
  double final_relative_residual = 0.0;
  // Operation counts over the whole solve:
  std::uint64_t spmv_count = 0;
  std::uint64_t dot_count = 0;     ///< global reductions (allreduce at scale)
  std::uint64_t axpy_count = 0;
  double flops = 0.0;
  double mem_bytes = 0.0;
};

/// Preconditioned conjugate gradient for SPD systems.
/// \p x holds the initial guess on entry, the solution on exit.
SolveStats conjugate_gradient(const CsrMatrix& A, std::span<const double> b,
                              std::span<double> x, const SolverOptions& opts,
                              ThreadPool* pool = nullptr);

// --- instrumented vector kernels (exposed for reuse & testing) -------------

/// dot(a, b) with threaded partial sums (deterministic reduction order).
double dot(std::span<const double> a, std::span<const double> b,
           ThreadPool* pool = nullptr);

/// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y,
          ThreadPool* pool = nullptr);

/// y = x + beta * y  (xpby, used by CG's direction update)
void xpby(std::span<const double> x, double beta, std::span<double> y,
          ThreadPool* pool = nullptr);

double norm2(std::span<const double> a, ThreadPool* pool = nullptr);

}  // namespace hpcs::alya
