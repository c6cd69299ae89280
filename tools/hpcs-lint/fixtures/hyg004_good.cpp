// Fixture: no HYG-004 finding — naming, borrowing or querying a pool
// (and fanning out through the grid runner) constructs none.
#include <cstddef>

#include "core/grid.hpp"
#include "core/thread_pool.hpp"

namespace hpcs::study {
class TaskPool;
}

namespace hs = hpcs::study;

std::size_t drain(hs::TaskPool& pool, const hs::TaskPool* spare) {
  pool.wait_idle();
  const hs::TaskPool::Stats stats = pool.stats();
  (void)spare;
  return stats.tasks_executed +
         static_cast<std::size_t>(hs::TaskPool::current_worker() + 1);
}

hs::TaskPool::Stats sweep(int jobs) {
  return hs::run_cells(8, jobs, [](std::size_t) {});
}
