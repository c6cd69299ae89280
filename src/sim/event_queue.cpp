#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace hpcs::sim {

EventId EventQueue::push(SimTime t, std::function<void()> fn) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.action = std::move(fn);
  s.live = true;
  heap_.push_back(Entry{t, next_seq_++, slot, s.generation});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  ++live_;
  return EventId{s.generation} << 32 | slot;
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (!s.live || s.generation != static_cast<std::uint32_t>(id >> 32))
    return false;
  release(slot);
  // Purge the skipped entries once they outnumber the live ones, so the
  // heap stays O(pending) however many events get cancelled.  (time, seq)
  // is a total order, so rebuilding the heap cannot change pop order.
  if (heap_.size() > 2 * live_) {
    std::erase_if(heap_, [this](const Entry& e) { return stale(e); });
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  return true;
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.action = nullptr;  // release captured state eagerly
  s.live = false;
  ++s.generation;  // the slot's heap entry and id are stale from now on
  free_.push_back(slot);
  --live_;
}

void EventQueue::drop_cancelled_head() const {
  while (!heap_.empty() && stale(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }
}

bool EventQueue::empty() const {
  drop_cancelled_head();
  return heap_.empty();
}

SimTime EventQueue::next_time() const {
  drop_cancelled_head();
  if (heap_.empty()) throw std::logic_error("EventQueue::next_time on empty");
  return heap_.front().time;
}

std::function<void()> EventQueue::pop(SimTime& t_out) {
  drop_cancelled_head();
  if (heap_.empty()) throw std::logic_error("EventQueue::pop on empty");
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  const Entry e = heap_.back();
  heap_.pop_back();
  t_out = e.time;
  auto fn = std::move(slots_[e.slot].action);
  release(e.slot);  // a late cancel() of this id now returns false
  return fn;
}

}  // namespace hpcs::sim
