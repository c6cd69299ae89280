#pragma once

/// \file policy.hpp
/// \brief Scheduling policy knobs: queue discipline x node allocation.
///
/// The two axes the ROADMAP's facility-scale scenarios sweep:
///
///   * queue discipline — strict priority/FIFO (the head of the queue
///     blocks everyone behind it) vs EASY-style conservative backfill
///     (the head gets a resource reservation; later jobs may jump ahead
///     only when they provably vacate before that reservation);
///   * allocation mode — dedicated nodes (one job per node, the classic
///     HPC contract) vs node sharing (core-level packing, the
///     utilization-vs-interference trade).

#include <string>

namespace hpcs::sched {

/// How jobs map onto nodes.
enum class AllocMode {
  Dedicated,  ///< whole nodes; a node hosts at most one job
  NodeShare,  ///< core-level packing; jobs may share a node
};

/// How the pending queue is drained.
enum class QueueDiscipline {
  Fifo,      ///< strict priority/FIFO; a blocked head stalls the queue
  Backfill,  ///< conservative backfill behind the head's reservation
};

struct SchedPolicy {
  std::string name = "backfill-dedicated";
  QueueDiscipline queue = QueueDiscipline::Backfill;
  AllocMode alloc = AllocMode::Dedicated;

  /// Named presets: "fifo-dedicated", "backfill-dedicated",
  /// "fifo-share", "backfill-share".
  /// \throws std::invalid_argument for unknown names.
  static SchedPolicy preset(const std::string& name);
};

}  // namespace hpcs::sched
