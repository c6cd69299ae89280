#pragma once

/// \file trace.hpp
/// \brief Host-time spans recorded by the benchmark around its calls into
///        the hpcs layers, and the statistics the report derives from them.
///
/// Spans are kept in memory and written once, at the end of a traced run,
/// in the repo's Chrome-trace format.  Span names are "<layer>.<op>" or
/// "<layer>.<op>/<detail>"; the part before the first '/' names the
/// per-layer metric the span feeds.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One host-time interval, in seconds since the tracer's epoch.  Names
/// are string literals (static storage), so recording one allocates
/// nothing beyond the span itself.
struct Span {
  std::string_view name;
  double start = 0.0;
  double end = 0.0;
  std::uint64_t id = 0;      ///< 1-based, unique per tracer
  std::uint64_t parent = 0;  ///< enclosing span; 0 = root
  int track = 0;             ///< recording thread (dense index)

  double duration() const noexcept { return end - start; }
};

/// Thread-safe in-memory span recorder.  Parents are tracked per thread;
/// a span opened on a pool worker may name its parent explicitly.
class Tracer {
 public:
  Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Seconds since the tracer was created.
  double now() const;

  /// Snapshot of every closed span, ordered by id.
  std::vector<Span> spans() const;

  /// Writes the spans as Chrome trace-event JSON (one process named
  /// \p process, one thread lane per recording thread).
  void write_chrome_trace(std::ostream& out, const std::string& process) const;

  /// RAII span: opens on construction, closes on destruction.  A null
  /// tracer records nothing, so untraced code paths share the call sites.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name, std::uint64_t parent = 0);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    std::uint64_t id() const noexcept { return span_.id; }

   private:
    Tracer* tracer_;
    Span span_;
  };

 private:
  void record(Span span);

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children, as on a worker
/// pool, are counted once).  Indexed like \p spans.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Distribution summary of one timing.  `tail` is the highest of p99.9,
/// p99, p90 and p50 that has at least ten samples beyond it; with fewer
/// than twenty samples no percentile qualifies and `tail_q` is 0, `tail`
/// then repeats the median.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 0.0;
  double max = 0.0;
};

/// Nearest-rank percentile summary of \p samples.
Summary summarize(std::vector<double> samples);

/// Median of \p samples (0 when empty).
double median(std::vector<double> samples);

}  // namespace perfbench
