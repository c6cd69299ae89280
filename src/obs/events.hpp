#pragma once

/// \file events.hpp
/// \brief Observability event records: spans and instant markers.
///
/// A span is a named interval on an entity's track, measured in *simulated*
/// seconds; an instant is a zero-duration marker (a crash, a retry).  The
/// records mirror what BSC's Extrae emits for Alya — enough structure for a
/// Paraver-style phase breakdown or a Chrome/Perfetto timeline — while
/// staying deterministic: nothing here depends on host time, thread ids,
/// or allocation addresses, so a trace is byte-reproducible per seed.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hpcs::obs {

/// One (key, value) annotation on an event.  Call sites use a fixed key
/// order so serialized traces stay byte-stable.
using EventArgs = std::vector<std::pair<std::string, std::string>>;

/// A completed interval on a track.
struct SpanEvent {
  std::string name;      ///< e.g. "compute", "pull", "cell"
  std::string category;  ///< e.g. "phase", "deployment", "campaign"
  int track = 0;         ///< entity lane: 0 = job, 1+n = node n, ...
  double start = 0.0;    ///< simulated seconds
  double duration = 0.0;
  std::uint64_t id = 0;      ///< per-collector sequence id (1-based)
  std::uint64_t parent = 0;  ///< enclosing span's id; 0 = root
  EventArgs args;

  double end() const noexcept { return start + duration; }
};

/// A zero-duration marker (fault injection, retry, checkpoint).
struct InstantEvent {
  std::string name;
  std::string category;
  int track = 0;
  double time = 0.0;
  EventArgs args;
};

/// Canonical event order: by track, then start time, then longest-first
/// (so parents sort before their children), then emission id.  Sorting a
/// span set into this order makes serialization independent of the order
/// concurrent producers happened to emit in; Collector::take_trace()
/// returns its events in this order.
bool span_before(const SpanEvent& a, const SpanEvent& b) noexcept;
bool instant_before(const InstantEvent& a, const InstantEvent& b) noexcept;

}  // namespace hpcs::obs
