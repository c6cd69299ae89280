#pragma once

/// \file collector.hpp
/// \brief The span collector: RAII scoped spans, instant markers, metrics,
///        and pluggable sinks.
///
/// One Collector instruments one simulated run (a campaign cell).  All
/// times are *simulated* seconds — the collector never reads a clock for
/// event fields, which is what keeps traces byte-reproducible per seed and
/// invariant under the campaign's `--jobs` count.  Host-side wall time is
/// tracked separately (SpanScope measures it per category into
/// `host_stats()`) and is deliberately excluded from every serialized
/// artifact.
///
/// Cost model: a default-constructed Collector is *disabled* — every
/// record call is a null-check and return, no allocation, no lock, and,
/// critically, no RNG draw anywhere in the instrumentation — so
/// instrumented code paths are free when observability is off.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace hpcs::obs {

/// Everything one run recorded; value type carried in results.
struct TraceData {
  std::vector<SpanEvent> spans;
  std::vector<InstantEvent> instants;

  bool empty() const noexcept { return spans.empty() && instants.empty(); }
  std::size_t size() const noexcept {
    return spans.size() + instants.size();
  }

  /// Sorts both event sets into canonical order (see events.hpp).
  void canonicalize();
};

/// Pluggable event consumer.  Implementations must tolerate concurrent
/// calls when shared across threads (MemorySink locks; a streaming sink
/// would too).
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void on_span(SpanEvent event) = 0;
  virtual void on_instant(InstantEvent event) = 0;
};

/// Discards everything (an explicitly-constructed disabled pipeline).
class NullSink final : public Sink {
 public:
  void on_span(SpanEvent) override {}
  void on_instant(InstantEvent) override {}
};

/// Stores events in memory; the standard sink for runs and tests.
class MemorySink final : public Sink {
 public:
  void on_span(SpanEvent event) override;
  void on_instant(InstantEvent event) override;

  /// Moves the collected events out (canonicalized).
  TraceData take();

 private:
  mutable std::mutex mutex_;
  TraceData data_;
};

class SpanScope;

/// The recording front end.  Disabled (default-constructed) collectors
/// no-op every call.
class Collector {
 public:
  /// Disabled collector: records nothing, allocates nothing.
  Collector() = default;

  /// Collector feeding \p sink; a null sink yields a disabled collector
  /// (same as default construction), so call sites can build one
  /// conditionally in a single expression.
  explicit Collector(std::shared_ptr<Sink> sink);

  bool enabled() const noexcept { return sink_ != nullptr; }

  /// Records a completed span.  The parent is the innermost open
  /// SpanScope on the same track (0 if none).
  void span(int track, std::string_view name, std::string_view category,
            double start, double duration, EventArgs args = {});

  /// Records an instant marker.
  void instant(int track, std::string_view name, std::string_view category,
               double time, EventArgs args = {});

  /// Metric shortcuts (no-ops when disabled).
  void count(std::string_view name, double delta = 1.0);
  void gauge(std::string_view name, double value);
  void observe(std::string_view name, double value);

  /// The metrics registry accumulated so far.
  const Metrics& metrics() const noexcept { return metrics_; }
  Metrics& metrics() noexcept { return metrics_; }

  /// Opts this collector into windowed time-series recording.  Separate
  /// from enabled() on purpose: trace/metrics output must stay
  /// byte-identical whether or not telemetry is on, so the ts_* calls
  /// write to their own store and nothing else.  No-op when disabled.
  /// \throws std::invalid_argument for window_s <= 0.
  void enable_timeseries(double window_s, SketchConfig sketch = {});
  bool timeseries_enabled() const noexcept { return timeseries_ != nullptr; }

  /// Windowed shortcuts at simulated time \p t (no-ops unless
  /// enable_timeseries() was called: one null check, no allocation).
  void ts_count(std::string_view name, double t, double delta = 1.0);
  void ts_gauge(std::string_view name, double t, double value);
  void ts_observe(std::string_view name, double t, double value);

  /// Snapshot of the windowed store (empty when telemetry is off).
  TimeSeries timeseries() const;

  /// Latest simulated time seen on \p track (max span/instant end); used
  /// by SpanScope destructors to close unclosed spans.
  double cursor(int track) const;

  /// Host-side wall time per category, accumulated by SpanScope.
  /// Diagnostic only: never serialized (host time is not deterministic).
  std::map<std::string, sim::RunningStats> host_stats() const;

 private:
  friend class SpanScope;

  struct OpenSpan {
    std::string name;
    std::string category;
    double start = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    EventArgs args;
  };

  std::uint64_t open_span(int track, std::string_view name,
                          std::string_view category, double start);
  void close_span(int track, std::uint64_t id, double end);
  void observe_host(const std::string& category, double seconds);

  std::shared_ptr<Sink> sink_;  ///< null = disabled
  Metrics metrics_;
  std::unique_ptr<TimeSeries> timeseries_;  ///< null = telemetry off
  mutable std::mutex mutex_;
  std::map<int, std::vector<OpenSpan>> open_;  ///< per-track span stacks
  std::map<int, double> cursors_;
  std::map<std::string, sim::RunningStats> host_stats_;
  std::uint64_t next_id_ = 1;
};

/// RAII scoped span: opens on construction, closes on `close(end)` or, if
/// never closed explicitly, at the track's cursor (the end of its last
/// child) on destruction.  Also measures the scope's *host* duration into
/// Collector::host_stats() — the simulated-vs-host pairing the paper's
/// methodology section talks about.
class SpanScope {
 public:
  SpanScope(Collector& collector, int track, std::string_view name,
            std::string_view category, double start);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Closes the span at simulated time \p end (idempotent).
  void close(double end);

 private:
  Collector& collector_;
  int track_;
  std::string category_;
  std::uint64_t id_ = 0;  ///< 0 when the collector is disabled
  bool closed_ = false;
  std::chrono::steady_clock::time_point host_start_;
};

}  // namespace hpcs::obs
