#include "alya/csr.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace hpcs::alya {

CsrMatrix CsrMatrix::from_pattern(
    const std::vector<std::vector<Index>>& adjacency) {
  return build(adjacency, 1);
}

CsrMatrix CsrMatrix::from_node_blocks(
    const std::vector<std::vector<Index>>& adjacency) {
  return build(adjacency, 3);
}

CsrMatrix CsrMatrix::build(const std::vector<std::vector<Index>>& adjacency,
                           int block) {
  const auto nodes = static_cast<Index>(adjacency.size());
  if (nodes > static_cast<Index>(std::numeric_limits<std::uint32_t>::max()))
    throw std::invalid_argument("CsrMatrix: too many rows for 32-bit blocks");
  CsrMatrix m;
  m.block_ = block;
  m.row_ptr_.reserve(adjacency.size() * static_cast<std::size_t>(block) + 1);
  m.row_ptr_.push_back(0);
  for (std::size_t i = 0; i < adjacency.size(); ++i) {
    const auto& row = adjacency[i];
    if (!std::is_sorted(row.begin(), row.end()))
      throw std::invalid_argument("CsrMatrix: adjacency rows must be sorted");
    if (!std::binary_search(row.begin(), row.end(), static_cast<Index>(i)))
      throw std::invalid_argument(
          "CsrMatrix: adjacency must include the diagonal");
    if (row.front() < 0 || row.back() >= nodes)
      throw std::invalid_argument("CsrMatrix: adjacency entry out of range");
    for (Index j : row) m.block_cols_.push_back(static_cast<std::uint32_t>(j));
    for (int a = 0; a < block; ++a) {
      for (Index j : row)
        for (Index c = 0; c < block; ++c) m.cols_.push_back(block * j + c);
      m.row_ptr_.push_back(static_cast<Index>(m.cols_.size()));
    }
  }
  m.vals_.assign(m.cols_.size(), 0.0);
  return m;
}

Index CsrMatrix::find(Index row, Index col) const noexcept {
  if (row < 0 || row >= rows()) return -1;
  const auto b = cols_.begin() + static_cast<std::ptrdiff_t>(
                                     row_ptr_[static_cast<std::size_t>(row)]);
  const auto e =
      cols_.begin() +
      static_cast<std::ptrdiff_t>(row_ptr_[static_cast<std::size_t>(row) + 1]);
  const auto it = std::lower_bound(b, e, col);
  if (it == e || *it != col) return -1;
  return static_cast<Index>(it - cols_.begin());
}

void CsrMatrix::add(Index row, Index col, double value) {
  const Index k = find(row, col);
  if (k < 0)
    throw std::out_of_range("CsrMatrix::add: entry (" + std::to_string(row) +
                            "," + std::to_string(col) + ") not in pattern");
  vals_[static_cast<std::size_t>(k)] += value;
}

double CsrMatrix::get(Index row, Index col) const noexcept {
  const Index k = find(row, col);
  return k < 0 ? 0.0 : vals_[static_cast<std::size_t>(k)];
}

void CsrMatrix::clear_values() noexcept {
  std::fill(vals_.begin(), vals_.end(), 0.0);
}

void CsrMatrix::scale(double factor) noexcept {
  for (auto& v : vals_) v *= factor;
}

template <int B>
void CsrMatrix::spmv_block_rows(std::span<const double> x,
                                std::span<double> y, std::size_t begin,
                                std::size_t end) const {
  constexpr auto kB = static_cast<std::size_t>(B);
  for (std::size_t ib = begin; ib < end; ++ib) {
    const std::size_t row = kB * ib;
    const auto lo = static_cast<std::size_t>(row_ptr_[row]);
    const auto len = static_cast<std::size_t>(row_ptr_[row + 1]) - lo;
    // Every earlier block row holds B rows of whole B x B blocks, so this
    // block row's columns start at block_cols_[lo / (B*B)].
    const std::size_t k0 = lo / (kB * kB);
    // One accumulator per row, each adding its terms in column order:
    // exactly the scalar loop's sums, with each x block loaded once.
    double sum[kB] = {};
    for (std::size_t k = 0; k < len / kB; ++k) {
      const std::size_t col = kB * block_cols_[k0 + k];
      double xb[kB] = {};
      for (std::size_t c = 0; c < kB; ++c) xb[c] = x[col + c];
      for (std::size_t r = 0; r < kB; ++r)
        for (std::size_t c = 0; c < kB; ++c)
          sum[r] += vals_[lo + r * len + kB * k + c] * xb[c];
    }
    for (std::size_t r = 0; r < kB; ++r) y[row + r] = sum[r];
  }
}

void CsrMatrix::spmv(std::span<const double> x, std::span<double> y,
                     ThreadPool* pool) const {
  const auto n = static_cast<std::size_t>(rows());
  if (x.size() != n || y.size() != n)
    throw std::invalid_argument("CsrMatrix::spmv: size mismatch");
  auto body = [&](std::size_t begin, std::size_t end) {
    if (block_ == 3)
      spmv_block_rows<3>(x, y, begin, end);
    else
      spmv_block_rows<1>(x, y, begin, end);
  };
  const std::size_t block_rows = n / static_cast<std::size_t>(block_);
  if (pool)
    pool->parallel_for(block_rows, body);
  else
    body(0, block_rows);
}

std::vector<double> CsrMatrix::diagonal() const {
  std::vector<double> d(static_cast<std::size_t>(rows()));
  for (Index i = 0; i < rows(); ++i)
    d[static_cast<std::size_t>(i)] = get(i, i);
  return d;
}

void CsrMatrix::apply_dirichlet(const std::vector<Index>& dofs,
                                const std::vector<double>& values,
                                std::span<double> rhs) {
  if (dofs.size() != values.size())
    throw std::invalid_argument("apply_dirichlet: dofs/values mismatch");
  std::vector<char> constrained(static_cast<std::size_t>(rows()), 0);
  std::vector<double> bc(static_cast<std::size_t>(rows()), 0.0);
  for (std::size_t k = 0; k < dofs.size(); ++k) {
    const Index d = dofs[k];
    if (d < 0 || d >= rows())
      throw std::out_of_range("apply_dirichlet: bad dof");
    constrained[static_cast<std::size_t>(d)] = 1;
    bc[static_cast<std::size_t>(d)] = values[k];
  }
  // Column sweep: move known values to the RHS, zero the column entries.
  for (Index i = 0; i < rows(); ++i) {
    if (constrained[static_cast<std::size_t>(i)]) continue;
    const auto lo = static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(i)]);
    const auto hi =
        static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(i) + 1]);
    for (std::size_t k = lo; k < hi; ++k) {
      const auto j = static_cast<std::size_t>(cols_[k]);
      if (constrained[j]) {
        rhs[static_cast<std::size_t>(i)] -= vals_[k] * bc[j];
        vals_[k] = 0.0;
      }
    }
  }
  // Row sweep: identity rows for constrained dofs.
  for (Index d = 0; d < rows(); ++d) {
    if (!constrained[static_cast<std::size_t>(d)]) continue;
    const auto lo = static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(d)]);
    const auto hi =
        static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(d) + 1]);
    for (std::size_t k = lo; k < hi; ++k)
      vals_[k] = (cols_[k] == d) ? 1.0 : 0.0;
    rhs[static_cast<std::size_t>(d)] = bc[static_cast<std::size_t>(d)];
  }
}

double CsrMatrix::spmv_bytes() const noexcept {
  const double n = static_cast<double>(rows());
  const double z = static_cast<double>(nnz());
  // values (8B) + col indices (8B) per entry, x gather ~ 8B per entry
  // (imperfect cache reuse), row ptr + y: 16B per row.
  return z * (8.0 + 8.0 + 8.0) + n * 16.0;
}

}  // namespace hpcs::alya
