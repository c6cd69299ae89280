#include "sched/policy.hpp"

#include <stdexcept>

namespace hpcs::sched {

SchedPolicy SchedPolicy::preset(const std::string& name) {
  SchedPolicy policy;
  policy.name = name;
  if (name == "fifo-dedicated") {
    policy.queue = QueueDiscipline::Fifo;
    policy.alloc = AllocMode::Dedicated;
  } else if (name == "backfill-dedicated") {
    policy.queue = QueueDiscipline::Backfill;
    policy.alloc = AllocMode::Dedicated;
  } else if (name == "fifo-share") {
    policy.queue = QueueDiscipline::Fifo;
    policy.alloc = AllocMode::NodeShare;
  } else if (name == "backfill-share") {
    policy.queue = QueueDiscipline::Backfill;
    policy.alloc = AllocMode::NodeShare;
  } else {
    throw std::invalid_argument("SchedPolicy: unknown preset '" + name +
                                "' (fifo-dedicated, backfill-dedicated, "
                                "fifo-share, backfill-share)");
  }
  return policy;
}

}  // namespace hpcs::sched
