#include "mpi/collectives.hpp"

namespace hpcs::mpi {

Collectives::Collectives(const CostModel& cost, bool topology_aware)
    : cost_(cost), topology_aware_(topology_aware) {}

int Collectives::ceil_log2(int n) noexcept {
  int l = 0;
  int v = 1;
  while (v < n) {
    v <<= 1;
    ++l;
  }
  return l;
}

double Collectives::hierarchical(std::uint64_t bytes) const {
  const auto& map = cost_.mapping();
  const int intra_stages = ceil_log2(map.ranks_per_node());
  const int inter_stages = ceil_log2(map.nodes());
  double t = 0.0;
  t += static_cast<double>(intra_stages) * cost_.intranode_time(bytes);
  t += static_cast<double>(inter_stages) * cost_.internode_time(bytes, 1);
  t += static_cast<double>(intra_stages) * cost_.intranode_time(bytes);
  return t;
}

double Collectives::flat(std::uint64_t bytes) const {
  const auto& map = cost_.mapping();
  const int p = map.ranks();
  const int rpn = map.ranks_per_node();
  const int stages = ceil_log2(p);
  double t = 0.0;
  for (int k = 0; k < stages; ++k) {
    const long distance = 1L << k;
    if (distance < rpn) {
      // Partner on the same node (block placement) — but all ranks of the
      // node exchange simultaneously through whatever intra-node path the
      // runtime left them.
      t += cost_.intranode_time(bytes, rpn);
    } else {
      // Every rank of the node talks off-node at once.
      t += cost_.internode_time(bytes, rpn);
    }
  }
  return t;
}

double Collectives::allreduce(std::uint64_t bytes) const {
  return topology_aware_ ? hierarchical(bytes) : flat(bytes);
}

}  // namespace hpcs::mpi
