#include "core/thread_pool.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace hpcs::study {

// One mutex guards every deque and counter.  Campaign tasks are coarse
// (each simulates a whole scenario), so queue operations are a vanishing
// fraction of the runtime and the simplicity buys easy-to-audit blocking
// semantics for wait_idle and shutdown.
struct TaskPool::Impl {
  std::mutex mutex;
  std::condition_variable work_cv;  // workers: "a task or stop arrived"
  std::condition_variable idle_cv;  // wait_idle: "pending hit zero"
  std::vector<std::deque<std::function<void()>>> queues;
  std::vector<std::thread> threads;
  std::size_t pending = 0;  // submitted but not yet finished
  std::size_t next = 0;     // round-robin submit cursor
  std::size_t steals = 0;
  std::size_t max_depth = 0;  // deepest any deque got (queue pressure)
  std::vector<std::size_t> executed;  // completions per worker
  std::exception_ptr first_error;
  bool stop = false;
};

namespace {
// Which worker of which pool the current thread is; -1 outside workers.
// Lets nested submits target the submitter's own deque.
thread_local TaskPool::Impl* tls_pool = nullptr;
thread_local std::size_t tls_worker = 0;

void worker_loop(TaskPool::Impl* impl, std::size_t id) {
  tls_pool = impl;
  tls_worker = id;
  std::unique_lock lock(impl->mutex);
  for (;;) {
    std::function<void()> task;
    if (!impl->queues[id].empty()) {
      // Own work first, oldest first (fair FIFO within a worker).
      task = std::move(impl->queues[id].front());
      impl->queues[id].pop_front();
    } else {
      // Steal from the back of the most loaded victim.
      std::size_t victim = id;
      std::size_t best = 0;
      for (std::size_t q = 0; q < impl->queues.size(); ++q) {
        if (impl->queues[q].size() > best) {
          best = impl->queues[q].size();
          victim = q;
        }
      }
      if (best > 0) {
        task = std::move(impl->queues[victim].back());
        impl->queues[victim].pop_back();
        ++impl->steals;
      }
    }
    if (!task) {
      if (impl->stop) return;
      impl->work_cv.wait(lock);
      continue;
    }
    lock.unlock();
    try {
      task();
    } catch (...) {
      lock.lock();
      if (!impl->first_error) impl->first_error = std::current_exception();
      lock.unlock();
    }
    lock.lock();
    ++impl->executed[id];
    if (--impl->pending == 0) impl->idle_cv.notify_all();
  }
}
}  // namespace

TaskPool::TaskPool(int threads) : impl_(new Impl), threads_(threads) {
  if (threads < 1) {
    delete impl_;
    throw std::invalid_argument("TaskPool: threads < 1");
  }
  impl_->queues.resize(static_cast<std::size_t>(threads));
  impl_->executed.assign(static_cast<std::size_t>(threads), 0);
  impl_->threads.reserve(static_cast<std::size_t>(threads));
  for (std::size_t id = 0; id < static_cast<std::size_t>(threads); ++id)
    impl_->threads.emplace_back(worker_loop, impl_, id);
}

TaskPool::~TaskPool() {
  {
    std::lock_guard lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (auto& t : impl_->threads) t.join();
  delete impl_;
}

void TaskPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(impl_->mutex);
    const std::size_t target = tls_pool == impl_
                                   ? tls_worker
                                   : impl_->next++ % impl_->queues.size();
    impl_->queues[target].push_back(std::move(task));
    impl_->max_depth =
        std::max(impl_->max_depth, impl_->queues[target].size());
    ++impl_->pending;
  }
  impl_->work_cv.notify_all();
}

void TaskPool::wait_idle() {
  std::unique_lock lock(impl_->mutex);
  impl_->idle_cv.wait(lock, [&] { return impl_->pending == 0; });
  if (impl_->first_error) {
    std::exception_ptr err;
    std::swap(err, impl_->first_error);
    std::rethrow_exception(err);
  }
}

TaskPool::Stats TaskPool::stats() const {
  std::lock_guard lock(impl_->mutex);
  Stats s;
  s.steals = impl_->steals;
  s.max_queue_depth = impl_->max_depth;
  s.per_worker = impl_->executed;
  for (const std::size_t n : s.per_worker) s.tasks_executed += n;
  return s;
}

int TaskPool::current_worker() noexcept {
  return tls_pool ? static_cast<int>(tls_worker) : -1;
}

}  // namespace hpcs::study
