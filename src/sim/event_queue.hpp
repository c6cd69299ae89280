#pragma once

/// \file event_queue.hpp
/// \brief Time-ordered event queue for the discrete-event engine.
///
/// Ordering is (time, sequence): events at equal times fire in scheduling
/// order, which makes every simulation bit-reproducible regardless of
/// floating-point ties.
///
/// Memory is O(pending events), not O(events ever pushed): an action lives
/// in a slot that is recycled through a free list as soon as the event
/// fires or is cancelled, and cancelled heap entries are purged once they
/// outnumber the live ones.  An EventId carries the slot's generation, so
/// a stale id (fired or cancelled) never touches the slot's next occupant.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace hpcs::sim {

/// Simulation time in seconds.
using SimTime = double;

/// Opaque handle used to cancel a scheduled event.
using EventId = std::uint64_t;

class EventQueue {
 public:
  /// Schedules \p fn at absolute time \p t.  Returns a handle usable with
  /// cancel().  \p t may equal the current head time but must not precede
  /// the time of the last popped event (checked by the Engine, not here).
  EventId push(SimTime t, std::function<void()> fn);

  /// Cancels a pending event.  Returns false if the event already fired,
  /// was cancelled before, or the id is unknown.  The action is released
  /// at once; its heap entry is skipped on pop.
  bool cancel(EventId id);

  bool empty() const;

  /// Time of the earliest pending (non-cancelled) event.
  /// Precondition: !empty().
  SimTime next_time() const;

  /// Pops and returns the earliest event's action.
  /// Precondition: !empty().  Sets \p t_out to the event's time.
  std::function<void()> pop(SimTime& t_out);

  std::size_t pending() const { return live_; }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;  ///< push order: the tie-break at equal times
    std::uint32_t slot;
    std::uint32_t generation;
    // min-heap on (time, seq)
    bool operator>(const Entry& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  struct Slot {
    std::function<void()> action;
    std::uint32_t generation = 0;  ///< bumped every time the slot frees
    bool live = false;
  };

  bool stale(const Entry& e) const {
    return slots_[e.slot].generation != e.generation;
  }
  void release(std::uint32_t slot);
  void drop_cancelled_head() const;

  mutable std::vector<Entry> heap_;  ///< std::push_heap/pop_heap order
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace hpcs::sim
