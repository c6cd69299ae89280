#include "core/grid.hpp"

#include "sim/rng.hpp"

namespace hpcs::study {

std::uint64_t cell_seed(std::uint64_t base_seed, const std::string& key) {
  std::uint64_t state = base_seed ^ sim::hash64(key);
  return sim::splitmix64(state);
}

TaskPool::Stats run_cells(std::size_t n, int jobs,
                          const std::function<void(std::size_t)>& cell) {
  TaskPool pool(jobs);
  for (std::size_t i = 0; i < n; ++i) pool.submit([&cell, i] { cell(i); });
  pool.wait_idle();
  return pool.stats();
}

std::string quantile_cell(const sim::Samples& samples, double q) {
  return sim::CsvWriter::cell(samples.empty() ? 0.0 : samples.quantile(q));
}

}  // namespace hpcs::study
