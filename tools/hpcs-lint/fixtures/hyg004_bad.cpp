// Fixture: HYG-004 violations (TaskPool built outside the grid runner).
#include <memory>

#include "core/thread_pool.hpp"

namespace hs = hpcs::study;

void fan_out(int jobs) {
  hs::TaskPool pool(jobs);
  pool.wait_idle();
  hpcs::study::TaskPool(2).wait_idle();
  auto owned = std::make_unique<hs::TaskPool>(jobs);
  hs::TaskPool* raw = new hs::TaskPool{jobs};
  delete raw;
}
