// Bit-equality of the fast alya kernels with plain reference code: the
// 3x3-block SpMV against a scalar CSR and a textbook row loop, and every
// operator that reads the per-mesh Gauss-point geometry against an
// uncached copy that calls hex::jacobian at every Gauss point.  Every
// double is compared with ASSERT_EQ: the fast paths must keep every bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "alya/csr.hpp"
#include "alya/fem.hpp"
#include "alya/hex_shape.hpp"
#include "alya/temper.hpp"
#include "alya/threading.hpp"
#include "alya/tube_mesh.hpp"
#include "sim/rng.hpp"

namespace ha = hpcs::alya;

namespace {

using Adjacency = std::vector<std::vector<ha::Index>>;

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  hpcs::sim::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = 2.0 * rng.uniform() - 1.0;
  return v;
}

/// The 3-dof-per-node scalar pattern of a node adjacency.
Adjacency dof_pattern(const Adjacency& nodes) {
  Adjacency out(3 * nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t a = 0; a < 3; ++a)
      for (ha::Index j : nodes[i])
        for (ha::Index c = 0; c < 3; ++c) out[3 * i + a].push_back(3 * j + c);
  return out;
}

/// The same matrix with block size 1.
ha::CsrMatrix scalar_copy(const ha::CsrMatrix& block, const Adjacency& nodes) {
  auto scalar = ha::CsrMatrix::from_pattern(dof_pattern(nodes));
  for (ha::Index i = 0; i < block.rows(); ++i) {
    const auto& rp = block.row_ptr();
    for (auto k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k)
      scalar.add(i, block.col_indices()[static_cast<std::size_t>(k)],
                 block.values()[static_cast<std::size_t>(k)]);
  }
  return scalar;
}

/// Textbook CSR row loop: each row sums its entries in stored order.
std::vector<double> reference_spmv(const ha::CsrMatrix& a,
                                   std::span<const double> x) {
  std::vector<double> y(static_cast<std::size_t>(a.rows()));
  for (std::size_t i = 0; i < y.size(); ++i) {
    double sum = 0.0;
    for (auto k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      sum += a.values()[kk] *
             x[static_cast<std::size_t>(a.col_indices()[kk])];
    }
    y[i] = sum;
  }
  return y;
}

/// y = A x serially and on pools of 1 and 2 threads, each compared with
/// \p expected bit for bit.
void expect_spmv_bits(const ha::CsrMatrix& a, std::span<const double> x,
                      const std::vector<double>& expected) {
  ha::ThreadPool one(1), two(2);
  for (ha::ThreadPool* pool : {static_cast<ha::ThreadPool*>(nullptr), &one,
                               &two}) {
    std::vector<double> y(expected.size(), -7.0);
    a.spmv(x, y, pool);
    for (std::size_t i = 0; i < y.size(); ++i)
      ASSERT_EQ(y[i], expected[i])
          << "row " << i << ", threads "
          << (pool ? pool->thread_count() : 0);
  }
}

void expect_block_matches_scalar(const ha::CsrMatrix& block,
                                 const Adjacency& nodes, std::uint64_t seed) {
  ASSERT_EQ(block.block_size(), 3);
  const auto scalar = scalar_copy(block, nodes);
  ASSERT_EQ(scalar.block_size(), 1);
  ASSERT_EQ(scalar.nnz(), block.nnz());
  const auto x = random_vector(static_cast<std::size_t>(block.rows()), seed);
  const auto expected = reference_spmv(scalar, x);
  expect_spmv_bits(scalar, x, expected);
  expect_spmv_bits(block, x, expected);
}

/// Seeded random symmetric node adjacency with the diagonal; some nodes
/// couple only to themselves.
Adjacency random_adjacency(std::size_t n, std::uint64_t seed) {
  hpcs::sim::Rng rng(seed);
  Adjacency adj(n);
  for (std::size_t i = 0; i < n; ++i) {
    adj[i].push_back(static_cast<ha::Index>(i));
    for (std::size_t j = i + 1; j < n; ++j)
      if (rng.uniform() < 0.15) {
        adj[i].push_back(static_cast<ha::Index>(j));
        adj[j].push_back(static_cast<ha::Index>(i));
      }
  }
  for (auto& row : adj) std::sort(row.begin(), row.end());
  return adj;
}

ha::Mesh fsi_wall_mesh() {
  return ha::wall_mesh(ha::WallParams{.inner_radius = 1.0,
                                      .thickness = 0.3,
                                      .length = 4.0,
                                      .radial_cells = 2,
                                      .circumferential_cells = 16,
                                      .axial_cells = 8});
}

ha::Mesh fsi_lumen_mesh() {
  return ha::lumen_mesh(ha::TubeParams{
      .radius = 1.0, .length = 4.0, .cross_cells = 6, .axial_cells = 8});
}

/// A 3x3x3 box whose nodes are all moved by up to 15% of a cell, so no
/// element is affine and every Gauss point has its own Jacobian.
ha::Mesh distorted_box() {
  constexpr int kCells = 3;
  constexpr double kH = 1.0 / kCells;
  hpcs::sim::Rng rng(104729);
  auto jitter = [&] { return 0.15 * kH * (2.0 * rng.uniform() - 1.0); };
  std::vector<ha::Vec3> nodes;
  for (int k = 0; k <= kCells; ++k)
    for (int j = 0; j <= kCells; ++j)
      for (int i = 0; i <= kCells; ++i)
        nodes.push_back(ha::Vec3{kH * i + jitter(), kH * j + jitter(),
                                 kH * k + jitter()});
  auto id = [](int i, int j, int k) {
    return static_cast<ha::Index>((k * (kCells + 1) + j) * (kCells + 1) + i);
  };
  std::vector<ha::Hex> elems;
  for (int k = 0; k < kCells; ++k)
    for (int j = 0; j < kCells; ++j)
      for (int i = 0; i < kCells; ++i)
        elems.push_back(ha::Hex{id(i, j, k), id(i + 1, j, k),
                                id(i + 1, j + 1, k), id(i, j + 1, k),
                                id(i, j, k + 1), id(i + 1, j, k + 1),
                                id(i + 1, j + 1, k + 1),
                                id(i, j + 1, k + 1)});
  ha::Mesh mesh(std::move(nodes), std::move(elems));
  mesh.validate();
  return mesh;
}

// --- uncached oracles: hex::jacobian at every Gauss point of every call ---

std::vector<double> oracle_mass(const ha::Mesh& mesh) {
  std::vector<double> m(static_cast<std::size_t>(mesh.node_count()), 0.0);
  for (ha::Index e = 0; e < mesh.element_count(); ++e) {
    const auto coords = ha::hex::gather_coords(mesh, e);
    const auto& conn = mesh.element(e);
    for (const auto& gp : ha::hex::gauss_points()) {
      const auto n = ha::hex::shape(gp[0], gp[1], gp[2]);
      const auto j = ha::hex::jacobian(coords, gp[0], gp[1], gp[2]);
      for (std::size_t a = 0; a < 8; ++a)
        m[static_cast<std::size_t>(conn[a])] += n[a] * j.det;
    }
  }
  return m;
}

/// Calls \p fn(conn, n, j) at every Gauss point of every element.
template <class Fn>
void for_each_gauss_point(const ha::Mesh& mesh, Fn fn) {
  for (ha::Index e = 0; e < mesh.element_count(); ++e) {
    const auto coords = ha::hex::gather_coords(mesh, e);
    for (const auto& gp : ha::hex::gauss_points())
      fn(mesh.element(e), ha::hex::shape(gp[0], gp[1], gp[2]),
         ha::hex::jacobian(coords, gp[0], gp[1], gp[2]));
  }
}

std::vector<double> oracle_laplacian_values(const ha::Mesh& mesh) {
  auto k = ha::CsrMatrix::from_pattern(mesh.node_adjacency());
  for (ha::Index e = 0; e < mesh.element_count(); ++e) {
    const auto coords = ha::hex::gather_coords(mesh, e);
    const auto& conn = mesh.element(e);
    double ke[8][8] = {};
    for (const auto& gp : ha::hex::gauss_points()) {
      const auto j = ha::hex::jacobian(coords, gp[0], gp[1], gp[2]);
      for (std::size_t a = 0; a < 8; ++a)
        for (std::size_t b = 0; b < 8; ++b) {
          double g = 0.0;
          for (std::size_t d = 0; d < 3; ++d)
            g += j.dNdx[a][d] * j.dNdx[b][d];
          ke[a][b] += g * j.det;
        }
    }
    for (std::size_t a = 0; a < 8; ++a)
      for (std::size_t b = 0; b < 8; ++b) k.add(conn[a], conn[b], ke[a][b]);
  }
  return k.values();
}

std::vector<ha::Vec3> oracle_gradient(const ha::Mesh& mesh,
                                      std::span<const double> p) {
  std::vector<ha::Vec3> g(p.size(), ha::Vec3{});
  for_each_gauss_point(mesh, [&](const ha::Hex& conn, const auto& n,
                                 const ha::hex::JacobianResult& j) {
    ha::Vec3 gradp{};
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
  });
  const auto m = oracle_mass(mesh);
  for (std::size_t i = 0; i < g.size(); ++i)
    if (m[i] > 0) g[i] = g[i] * (1.0 / m[i]);
  return g;
}

std::vector<double> oracle_divergence(const ha::Mesh& mesh,
                                      std::span<const ha::Vec3> u) {
  std::vector<double> d(u.size(), 0.0);
  for_each_gauss_point(mesh, [&](const ha::Hex& conn, const auto& n,
                                 const ha::hex::JacobianResult& j) {
    double div = 0.0;
    for (std::size_t b = 0; b < 8; ++b) {
      const ha::Vec3& ub = u[static_cast<std::size_t>(conn[b])];
      div += j.dNdx[b][0] * ub.x + j.dNdx[b][1] * ub.y + j.dNdx[b][2] * ub.z;
    }
    for (std::size_t a = 0; a < 8; ++a)
      d[static_cast<std::size_t>(conn[a])] += n[a] * j.det * div;
  });
  const auto m = oracle_mass(mesh);
  for (std::size_t i = 0; i < d.size(); ++i)
    if (m[i] > 0) d[i] /= m[i];
  return d;
}

std::vector<ha::Vec3> oracle_advection(const ha::Mesh& mesh,
                                       std::span<const ha::Vec3> u) {
  std::vector<ha::Vec3> adv(u.size(), ha::Vec3{});
  for_each_gauss_point(mesh, [&](const ha::Hex& conn, const auto& n,
                                 const ha::hex::JacobianResult& j) {
    ha::Vec3 ug{};
    double grad[3][3] = {};
    for (std::size_t b = 0; b < 8; ++b) {
      const ha::Vec3& ub = u[static_cast<std::size_t>(conn[b])];
      ug = ug + ub * n[b];
      const double c[3] = {ub.x, ub.y, ub.z};
      for (std::size_t comp = 0; comp < 3; ++comp)
        for (std::size_t d = 0; d < 3; ++d)
          grad[comp][d] += j.dNdx[b][d] * c[comp];
    }
    const ha::Vec3 conv{
        ug.x * grad[0][0] + ug.y * grad[0][1] + ug.z * grad[0][2],
        ug.x * grad[1][0] + ug.y * grad[1][1] + ug.z * grad[1][2],
        ug.x * grad[2][0] + ug.y * grad[2][1] + ug.z * grad[2][2]};
    for (std::size_t a = 0; a < 8; ++a) {
      const double w = n[a] * j.det;
      auto& v = adv[static_cast<std::size_t>(conn[a])];
      v = v + conv * w;
    }
  });
  const auto m = oracle_mass(mesh);
  for (std::size_t i = 0; i < adv.size(); ++i)
    if (m[i] > 0) adv[i] = adv[i] * (1.0 / m[i]);
  return adv;
}

std::vector<double> oracle_scalar_advection(const ha::Mesh& mesh,
                                            std::span<const ha::Vec3> u,
                                            std::span<const double> c) {
  std::vector<double> adv(c.size(), 0.0);
  for_each_gauss_point(mesh, [&](const ha::Hex& conn, const auto& n,
                                 const ha::hex::JacobianResult& j) {
    ha::Vec3 ug{};
    ha::Vec3 gradc{};
    for (std::size_t b = 0; b < 8; ++b) {
      const auto idx = static_cast<std::size_t>(conn[b]);
      ug = ug + u[idx] * n[b];
      gradc.x += j.dNdx[b][0] * c[idx];
      gradc.y += j.dNdx[b][1] * c[idx];
      gradc.z += j.dNdx[b][2] * c[idx];
    }
    const double conv = ug.dot(gradc);
    for (std::size_t a = 0; a < 8; ++a)
      adv[static_cast<std::size_t>(conn[a])] += n[a] * j.det * conv;
  });
  const auto m = oracle_mass(mesh);
  for (std::size_t i = 0; i < adv.size(); ++i)
    if (m[i] > 0) adv[i] /= m[i];
  return adv;
}

void expect_bits(const std::vector<double>& got,
                 const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << what << " at " << i;
}

void expect_bits(const std::vector<ha::Vec3>& got,
                 const std::vector<ha::Vec3>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].x, want[i].x) << what << ".x at " << i;
    ASSERT_EQ(got[i].y, want[i].y) << what << ".y at " << i;
    ASSERT_EQ(got[i].z, want[i].z) << what << ".z at " << i;
  }
}

struct Fields {
  std::vector<double> scalar;
  std::vector<ha::Vec3> vector;
};

Fields seeded_fields(std::size_t n, std::uint64_t seed) {
  const auto s = random_vector(4 * n, seed);
  Fields f;
  for (std::size_t i = 0; i < n; ++i) {
    f.scalar.push_back(s[4 * i]);
    f.vector.push_back(ha::Vec3{s[4 * i + 1], s[4 * i + 2], s[4 * i + 3]});
  }
  return f;
}

void expect_cached_operators_match(const ha::Mesh& mesh, std::uint64_t seed) {
  const ha::MeshGeometry geometry(mesh);
  const auto f =
      seeded_fields(static_cast<std::size_t>(mesh.node_count()), seed);
  expect_bits(geometry.lumped_mass(), oracle_mass(mesh), "mass");
  expect_bits(ha::assemble_laplacian(geometry).values(),
              oracle_laplacian_values(mesh), "laplacian");
  expect_bits(ha::nodal_gradient(geometry, f.scalar),
              oracle_gradient(mesh, f.scalar), "gradient");
  expect_bits(ha::nodal_divergence(geometry, f.vector),
              oracle_divergence(mesh, f.vector), "divergence");
  expect_bits(ha::advection_term(geometry, f.vector),
              oracle_advection(mesh, f.vector), "advection");
  expect_bits(ha::scalar_advection(geometry, f.vector, f.scalar),
              oracle_scalar_advection(mesh, f.vector, f.scalar),
              "scalar advection");
}

}  // namespace

TEST(BlockSpmv, FactoryExpandsNodeBlocks) {
  const Adjacency nodes{{0, 1}, {0, 1}};
  const auto a = ha::CsrMatrix::from_node_blocks(nodes);
  EXPECT_EQ(a.block_size(), 3);
  EXPECT_EQ(a.rows(), 6);
  EXPECT_EQ(a.nnz(), 36);
  EXPECT_EQ(a.col_indices(),
            ha::CsrMatrix::from_pattern(dof_pattern(nodes)).col_indices());
  EXPECT_THROW(ha::CsrMatrix::from_node_blocks({{1, 0}, {0, 1}}),
               std::invalid_argument);
  EXPECT_THROW(ha::CsrMatrix::from_node_blocks({{1}, {0, 1}}),
               std::invalid_argument);
  EXPECT_THROW(ha::CsrMatrix::from_node_blocks({{0, 2}, {0, 1}}),
               std::invalid_argument);
}

TEST(BlockSpmv, ElasticityMatchesScalarCsrBitForBit) {
  const auto mesh = fsi_wall_mesh();
  const auto k = ha::assemble_elasticity(mesh, 1500.0, 0.3);
  expect_block_matches_scalar(k, mesh.node_adjacency(), 1);
}

TEST(BlockSpmv, ConstrainedElasticityMatchesScalarCsrBitForBit) {
  // The solid solve applies its clamped ends to a copy of the stiffness.
  const auto mesh = fsi_wall_mesh();
  auto k = ha::assemble_elasticity(mesh, 1500.0, 0.3);
  std::vector<ha::Index> fixed;
  for (ha::Index v : mesh.node_group("ends"))
    for (ha::Index c = 0; c < 3; ++c) fixed.push_back(3 * v + c);
  std::vector<double> rhs(static_cast<std::size_t>(k.rows()), 0.0);
  k.apply_dirichlet(fixed, std::vector<double>(fixed.size(), 0.0), rhs);
  expect_block_matches_scalar(k, mesh.node_adjacency(), 2);
}

TEST(BlockSpmv, RandomBlockPatternsMatchScalarCsrBitForBit) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    const auto nodes = random_adjacency(5 + 7 * seed, seed);
    auto a = ha::CsrMatrix::from_node_blocks(nodes);
    const auto v = random_vector(static_cast<std::size_t>(a.nnz()), 100 + seed);
    std::size_t next = 0;
    for (ha::Index i = 0; i < a.rows(); ++i)
      for (auto k = a.row_ptr()[static_cast<std::size_t>(i)];
           k < a.row_ptr()[static_cast<std::size_t>(i) + 1]; ++k)
        a.add(i, a.col_indices()[static_cast<std::size_t>(k)], v[next++]);
    expect_block_matches_scalar(a, nodes, 200 + seed);
  }
}

TEST(BlockSpmv, ScalarCsrMatchesTextbookLoop) {
  const auto mesh = fsi_lumen_mesh();
  const auto k = ha::assemble_laplacian(ha::MeshGeometry(mesh));
  ASSERT_EQ(k.block_size(), 1);
  const auto x = random_vector(static_cast<std::size_t>(k.rows()), 3);
  expect_spmv_bits(k, x, reference_spmv(k, x));
}

TEST(GeometryCache, LumenOperatorsMatchUncachedBitForBit) {
  expect_cached_operators_match(fsi_lumen_mesh(), 11);
}

TEST(GeometryCache, DistortedMeshOperatorsMatchUncachedBitForBit) {
  expect_cached_operators_match(distorted_box(), 12);
}

TEST(GeometryCache, HoldsJacobianOfEveryGaussPoint) {
  const auto mesh = distorted_box();
  const ha::MeshGeometry geometry(mesh);
  EXPECT_EQ(&geometry.mesh(), &mesh);
  const auto gps = ha::hex::gauss_points();
  for (ha::Index e = 0; e < mesh.element_count(); ++e) {
    const auto coords = ha::hex::gather_coords(mesh, e);
    for (std::size_t q = 0; q < 8; ++q) {
      const auto j = ha::hex::jacobian(coords, gps[q][0], gps[q][1],
                                       gps[q][2]);
      ASSERT_EQ(geometry.point(e, q).det, j.det);
      ASSERT_EQ(geometry.point(e, q).dNdx, j.dNdx);
      ASSERT_EQ(geometry.shape(q),
                ha::hex::shape(gps[q][0], gps[q][1], gps[q][2]));
    }
  }
}
