#pragma once

/// \file csr.hpp
/// \brief Compressed-sparse-row matrix with threaded SpMV.
///
/// The FEM operators assemble into this structure; its SpMV is the hot
/// kernel of the pressure/elasticity solves and is instrumented (FLOPs,
/// DRAM traffic) so that real runs produce the operation counts the
/// performance model replays on the simulated clusters.
///
/// A matrix has a block size B, fixed by its factory: 1 for a scalar
/// operator, 3 for a 3-dof-per-node one whose rows 3i..3i+2 share one
/// pattern of 3x3 node blocks.  Entries are always stored row by row
/// (`add`, `get`, `apply_dirichlet` and `diagonal` see a plain CSR); the
/// block size only lets the SpMV load each x block once for B rows.

#include <cstdint>
#include <span>
#include <vector>

#include "alya/mesh.hpp"
#include "alya/threading.hpp"

namespace hpcs::alya {

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds the pattern from a node adjacency list (entry (i,j) exists iff
  /// j is in adjacency[i]); values start at zero.  Adjacency lists must be
  /// sorted and include the diagonal.  Block size 1.
  static CsrMatrix from_pattern(
      const std::vector<std::vector<Index>>& adjacency);

  /// Builds the 3-dof-per-node pattern of a node adjacency (dof = 3*node +
  /// component): entry (3i+a, 3j+b) exists iff j is in adjacency[i].
  /// Same preconditions as from_pattern.  Block size 3.
  static CsrMatrix from_node_blocks(
      const std::vector<std::vector<Index>>& adjacency);

  Index rows() const noexcept { return static_cast<Index>(row_ptr_.size()) - 1; }
  Index nnz() const noexcept { return static_cast<Index>(cols_.size()); }
  int block_size() const noexcept { return block_; }

  /// Adds \p value to entry (row, col).
  /// \throws std::out_of_range if the entry is not in the pattern.
  void add(Index row, Index col, double value);

  /// Reads entry (row, col); zero if absent from the pattern.
  double get(Index row, Index col) const noexcept;

  /// Resets all values to zero, keeping the pattern.
  void clear_values() noexcept;

  /// Multiplies every stored value by \p factor (e.g. to form dt*D*K).
  void scale(double factor) noexcept;

  /// y = A x.  If \p pool is non-null the block rows are split across it.
  /// Each row sums its terms in column order, whatever the block size.
  void spmv(std::span<const double> x, std::span<double> y,
            ThreadPool* pool = nullptr) const;

  /// Extracts the diagonal (for Jacobi preconditioning).
  std::vector<double> diagonal() const;

  /// Symmetric Dirichlet elimination: for each (dof, value) constraint,
  /// moves the column contribution to \p rhs, zeroes row and column, puts
  /// 1 on the diagonal and the value into rhs[dof].  Keeps the matrix
  /// symmetric so CG remains applicable.
  void apply_dirichlet(const std::vector<Index>& dofs,
                       const std::vector<double>& values,
                       std::span<double> rhs);

  /// FLOPs of one SpMV (2 per stored entry).
  double spmv_flops() const noexcept { return 2.0 * static_cast<double>(nnz()); }

  /// Approximate DRAM traffic of one SpMV: values + column indices + the
  /// row pointer stream + input/output vectors.
  double spmv_bytes() const noexcept;

  const std::vector<Index>& row_ptr() const noexcept { return row_ptr_; }
  const std::vector<Index>& col_indices() const noexcept { return cols_; }
  const std::vector<double>& values() const noexcept { return vals_; }

 private:
  static CsrMatrix build(const std::vector<std::vector<Index>>& adjacency,
                         int block);
  template <int B>
  void spmv_block_rows(std::span<const double> x, std::span<double> y,
                       std::size_t begin, std::size_t end) const;

  int block_ = 1;
  std::vector<Index> row_ptr_;
  std::vector<Index> cols_;
  std::vector<double> vals_;
  /// Block column of each node block, row by block row (SpMV only).
  std::vector<std::uint32_t> block_cols_;

  Index find(Index row, Index col) const noexcept;  // -1 if absent
};

}  // namespace hpcs::alya
