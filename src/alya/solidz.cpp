#include "alya/solidz.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "alya/fem.hpp"

namespace hpcs::alya {

void SolidParams::validate() const {
  if (youngs_modulus <= 0)
    throw std::invalid_argument("SolidParams: E <= 0");
  if (poisson_ratio <= 0 || poisson_ratio >= 0.5)
    throw std::invalid_argument("SolidParams: nu outside (0, 0.5)");
  solver.validate();
}

namespace {
/// The six quad faces of a hex in VTK node ordering, oriented so the
/// right-hand normal points *out* of the element.
constexpr int kHexFaces[6][4] = {
    {0, 3, 2, 1},  // bottom (zeta = -1)
    {4, 5, 6, 7},  // top
    {0, 1, 5, 4},  // eta = -1
    {1, 2, 6, 5},  // xi = +1
    {2, 3, 7, 6},  // eta = +1
    {3, 0, 4, 7},  // xi = -1
};
}  // namespace

std::vector<QuadFace> group_faces(const Mesh& mesh,
                                  const std::string& group) {
  std::vector<char> in_group(static_cast<std::size_t>(mesh.node_count()), 0);
  for (Index v : mesh.node_group(group))
    in_group[static_cast<std::size_t>(v)] = 1;
  std::vector<QuadFace> faces;
  for (Index e = 0; e < mesh.element_count(); ++e) {
    const auto& conn = mesh.element(e);
    for (const auto& face : kHexFaces) {
      QuadFace f{};
      for (std::size_t k = 0; k < 4; ++k)
        f[k] = conn[static_cast<std::size_t>(face[k])];
      if (std::all_of(f.begin(), f.end(), [&](Index v) {
            return in_group[static_cast<std::size_t>(v)] != 0;
          }))
        faces.push_back(f);
    }
  }
  return faces;
}

std::vector<Vec3> pressure_load(const Mesh& mesh,
                                const std::vector<QuadFace>& faces,
                                double p) {
  std::vector<Vec3> f(static_cast<std::size_t>(mesh.node_count()), Vec3{});
  for (const auto& [a, b, c, d] : faces) {
    // Quad area vector via the cross product of the diagonals (exact for
    // planar quads, second-order otherwise), oriented outward.
    const Vec3 pa = mesh.node(a), pb = mesh.node(b), pc = mesh.node(c),
               pd = mesh.node(d);
    const Vec3 area_vec = (pc - pa).cross(pd - pb) * 0.5;
    // Pressure acts against the outward normal of the solid surface:
    // force = -p * n * A, split evenly over the 4 face nodes.
    const Vec3 fn = area_vec * (-p * 0.25);
    f[static_cast<std::size_t>(a)] = f[static_cast<std::size_t>(a)] + fn;
    f[static_cast<std::size_t>(b)] = f[static_cast<std::size_t>(b)] + fn;
    f[static_cast<std::size_t>(c)] = f[static_cast<std::size_t>(c)] + fn;
    f[static_cast<std::size_t>(d)] = f[static_cast<std::size_t>(d)] + fn;
  }
  return f;
}

std::vector<Vec3> pressure_load(const Mesh& mesh, const std::string& group,
                                double p) {
  return pressure_load(mesh, group_faces(mesh, group), p);
}

SolidzSolver::SolidzSolver(const Mesh& mesh, SolidParams params,
                           ThreadPool* pool)
    : mesh_(mesh), params_(params), pool_(pool) {
  params_.validate();
  stiffness_ =
      assemble_elasticity(mesh_, params_.youngs_modulus,
                          params_.poisson_ratio);
  disp_.assign(static_cast<std::size_t>(mesh_.node_count()), Vec3{});
}

const std::vector<Vec3>& SolidzSolver::solve(
    const std::vector<Vec3>& nodal_forces,
    const std::vector<Index>& fixed_dofs) {
  const auto nn = static_cast<std::size_t>(mesh_.node_count());
  if (nodal_forces.size() != nn)
    throw std::invalid_argument("SolidzSolver::solve: force size mismatch");

  std::vector<double> rhs(3 * nn);
  for (std::size_t i = 0; i < nn; ++i) {
    rhs[3 * i + 0] = nodal_forces[i].x;
    rhs[3 * i + 1] = nodal_forces[i].y;
    rhs[3 * i + 2] = nodal_forces[i].z;
  }

  CsrMatrix K = stiffness_;  // constraints are per-solve
  const std::vector<double> zeros(fixed_dofs.size(), 0.0);
  K.apply_dirichlet(fixed_dofs, zeros, rhs);

  std::vector<double> x(3 * nn, 0.0);
  // Warm start from the previous displacement (FSI coupling iterations).
  for (std::size_t i = 0; i < nn; ++i) {
    x[3 * i + 0] = disp_[i].x;
    x[3 * i + 1] = disp_[i].y;
    x[3 * i + 2] = disp_[i].z;
  }
  for (Index d : fixed_dofs) x[static_cast<std::size_t>(d)] = 0.0;

  last_ = conjugate_gradient(K, rhs, x, params_.solver, pool_);
  if (!last_.converged)
    throw std::runtime_error("SolidzSolver: CG did not converge");

  for (std::size_t i = 0; i < nn; ++i)
    disp_[i] = Vec3{x[3 * i + 0], x[3 * i + 1], x[3 * i + 2]};
  return disp_;
}

double SolidzSolver::mean_radial_displacement(
    const std::string& group) const {
  const auto& g = mesh_.node_group(group);
  if (g.empty()) throw std::invalid_argument("empty node group");
  double sum = 0.0;
  for (Index v : g) {
    const Vec3& pnode = mesh_.node(v);
    const double r = std::hypot(pnode.x, pnode.y);
    if (r <= 0) continue;
    const Vec3& u = disp_[static_cast<std::size_t>(v)];
    sum += (u.x * pnode.x + u.y * pnode.y) / r;
  }
  return sum / static_cast<double>(g.size());
}

}  // namespace hpcs::alya
