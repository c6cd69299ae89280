#pragma once

/// \file collectives.hpp
/// \brief Cost model for the MPI collective the solver uses (allreduce).
///
/// Two algorithm families are modeled:
///
///  * hierarchical — what Open MPI / Intel MPI do on multicore nodes when
///    they can detect co-located ranks: an intra-node phase over shared
///    memory, an inter-node phase between one leader per node, and an
///    intra-node broadcast.
///
///  * flat — plain recursive doubling over all ranks, oblivious to
///    placement.  This is what ranks in Docker containers get: each
///    container has its own hostname (UTS namespace), so the MPI library
///    cannot detect co-location, every "neighbor" looks remote, and all
///    ranks of a node hit the NIC simultaneously on inter-node stages.
///    This mechanism is the core of Docker's degradation with rank count
///    in the paper's Fig. 1.

#include <cstdint>

#include "mpi/cost_model.hpp"

namespace hpcs::mpi {

class Collectives {
 public:
  /// \param topology_aware true -> hierarchical algorithms; false -> flat.
  explicit Collectives(const CostModel& cost, bool topology_aware = true);

  /// MPI_Allreduce of \p bytes (the CG solver's dot products: 8-16 B).
  double allreduce(std::uint64_t bytes) const;

  bool topology_aware() const noexcept { return topology_aware_; }

 private:
  static int ceil_log2(int n) noexcept;

  /// Hierarchical stage sums: intra-phase + leader-phase + broadcast
  /// back down.
  double hierarchical(std::uint64_t bytes) const;

  /// Flat recursive doubling: per stage the partner is 2^k ranks away;
  /// under block placement the stage is intra-node while 2^k < ranks/node,
  /// and on inter-node stages all ranks per node inject concurrently.
  double flat(std::uint64_t bytes) const;

  const CostModel& cost_;
  bool topology_aware_;
};

}  // namespace hpcs::mpi
