#include "sched/queue.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>

namespace hpcs::sched {

JobQueue::JobQueue(const std::vector<Job>& jobs) {
  const std::size_t n = jobs.size();
  by_rank_.resize(n);
  std::iota(by_rank_.begin(), by_rank_.end(), 0);
  std::sort(by_rank_.begin(), by_rank_.end(), [&jobs](int a, int b) {
    const Job& ja = jobs[static_cast<std::size_t>(a)];
    const Job& jb = jobs[static_cast<std::size_t>(b)];
    if (ja.priority != jb.priority) return ja.priority > jb.priority;
    if (ja.submit_s != jb.submit_s) return ja.submit_s < jb.submit_s;
    return a < b;
  });
  rank_.resize(n);
  for (std::size_t r = 0; r < n; ++r)
    rank_[static_cast<std::size_t>(by_rank_[r])] = static_cast<int>(r);

  std::map<std::pair<int, int>, std::vector<int>> shapes;
  for (std::size_t j = 0; j < n; ++j)
    shapes[{jobs[j].gate, jobs[j].nodes}].push_back(static_cast<int>(j));
  shape_of_.resize(n);
  walltime_.resize(n);
  for (const auto& [key, members] : shapes) {
    Shape& shape = shapes_.emplace_back();
    shape.gate = key.first;
    shape.nodes = key.second;
    for (const int job : members) {
      const auto j = static_cast<std::size_t>(job);
      shape_of_[j] = static_cast<int>(shapes_.size() - 1);
      walltime_[j] = jobs[j].walltime_s;
    }
  }
  for (std::size_t s = shapes_.size(); s-- > 0;)
    shapes_[s].gate_end = s + 1 < shapes_.size() &&
                                  shapes_[s + 1].gate == shapes_[s].gate
                              ? shapes_[s + 1].gate_end
                              : s + 1;
}

void JobQueue::push(int job) {
  const auto j = static_cast<std::size_t>(job);
  if (job < 0 || j >= rank_.size())
    throw std::logic_error("JobQueue: unknown job " + std::to_string(job));
  if (!order_.insert(rank_[j]).second)
    throw std::logic_error("JobQueue: job " + std::to_string(job) +
                           " is already queued");
  shapes_[static_cast<std::size_t>(shape_of_[j])].queued.emplace(
      walltime_[j], rank_[j]);
}

void JobQueue::erase(int job) {
  const auto j = static_cast<std::size_t>(job);
  if (job < 0 || j >= rank_.size() || order_.erase(rank_[j]) == 0)
    throw std::logic_error("JobQueue: job " + std::to_string(job) +
                           " is not queued");
  shapes_[static_cast<std::size_t>(shape_of_[j])].queued.erase(
      {walltime_[j], rank_[j]});
}

std::size_t JobQueue::indexed() const noexcept {
  std::size_t n = 0;
  for (const Shape& shape : shapes_) n += shape.queued.size();
  return n;
}

int JobQueue::head() const {
  if (empty()) throw std::logic_error("JobQueue: head of an empty queue");
  return by_rank_[static_cast<std::size_t>(*order_.begin())];
}

bool JobQueue::any_shape_fits(const NodePool& pool) const {
  for (std::size_t s = 0; s < shapes_.size();) {
    const Shape& shape = shapes_[s];
    if (!pool.fits_shape(shape.gate, shape.nodes)) {
      s = shape.gate_end;
      continue;
    }
    if (!shape.queued.empty()) return true;
    ++s;
  }
  return false;
}

void JobQueue::backfill(const NodePool& pool, double now,
                        double reservation,
                        const std::function<void(int)>& start) {
  candidates_.clear();
  for (std::size_t s = 0; s < shapes_.size(); ++s) {
    const Shape& shape = shapes_[s];
    if (!pool.fits_shape(shape.gate, shape.nodes)) {
      s = shape.gate_end - 1;
      continue;
    }
    // now + walltime is monotone in walltime, so the jobs that vacate by
    // the reservation are a prefix of the shape.
    for (const auto& [walltime, rank] : shape.queued) {
      if (!(now + walltime <= reservation)) break;
      candidates_.push_back(rank);
    }
  }
  std::sort(candidates_.begin(), candidates_.end());
  for (const int rank : candidates_) {
    const int job = by_rank_[static_cast<std::size_t>(rank)];
    const auto s = shape_of_[static_cast<std::size_t>(job)];
    const Shape& shape = shapes_[static_cast<std::size_t>(s)];
    if (!pool.fits_shape(shape.gate, shape.nodes)) continue;
    start(job);
    if (order_.contains(rank))
      throw std::logic_error("JobQueue: backfill start left job " +
                             std::to_string(job) + " queued");
  }
}

}  // namespace hpcs::sched
