#pragma once

/// \file timeseries.hpp
/// \brief Fixed-window time-series store over *simulated* time.
///
/// Scalars in the Metrics registry answer "how much, in total"; this store
/// answers "when".  Simulated time is divided into fixed windows of
/// `window_s` seconds (window w covers [w*window_s, (w+1)*window_s)) and
/// each named series accumulates per window:
///
///  - **counter** series: the windowed sum of deltas (a rate when divided
///    by the window width);
///  - **gauge** series: the windowed maximum of sampled values (the only
///    order-free fold without timestamps, mirroring Metrics gauges);
///  - **sketch** series: a mergeable log-bucketed quantile sketch per
///    window (sketch.hpp), for per-window p50/p95/p99.
///
/// All folds are associative and commutative, and every container is an
/// ordered map, so merging cell series *in cell-index order* — exactly how
/// the campaign folds Metrics — yields byte-identical CSV/JSON regardless
/// of `--jobs` worker count or completion order.  Windows are sparse:
/// nothing is stored for windows with no samples.

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/sketch.hpp"
#include "sim/csv.hpp"

namespace hpcs::obs {

struct JsonValue;

/// Thread-safe windowed accumulator for counter/gauge/sketch series.
class TimeSeries {
 public:
  /// Series name -> window -> value; names compare transparently, so a
  /// lookup by string_view allocates nothing.
  template <class V>
  using SeriesMap =
      std::map<std::string, std::map<std::int64_t, V>, std::less<>>;

  TimeSeries() = default;
  /// \throws std::invalid_argument for window_s <= 0 or a bad sketch
  /// layout.
  explicit TimeSeries(double window_s, SketchConfig sketch = {});
  TimeSeries(const TimeSeries& other);
  TimeSeries& operator=(const TimeSeries& other);

  double window_s() const noexcept { return window_s_; }
  const SketchConfig& sketch_config() const noexcept { return sketch_; }

  /// Window index containing simulated time \p t.
  std::int64_t window_of(double t) const;
  /// Start time of window \p w in simulated seconds.
  double window_start(std::int64_t w) const;

  /// Adds \p delta to the named counter series in the window of \p t.
  void count(std::string_view name, double t, double delta = 1.0);
  /// Samples the named gauge series (per-window maximum).
  void gauge(std::string_view name, double t, double value);
  /// Feeds \p value into the named per-window quantile sketch.
  void observe(std::string_view name, double t, double value);

  /// Folds \p other in: counters add, gauges keep the maximum, sketches
  /// merge bucket counts.  Associative and commutative; an empty store is
  /// the identity.  \throws std::invalid_argument on window-width or
  /// sketch-layout mismatch between two non-empty stores.
  void merge(const TimeSeries& other);

  bool empty() const;

  /// Snapshots for deterministic iteration (sorted name, then window).
  SeriesMap<double> counters() const;
  SeriesMap<double> gauges() const;
  SeriesMap<QuantileSketch> sketches() const;

  /// Sum of the named counter series across all windows (0 if unknown).
  double counter_total(std::string_view name) const;
  /// Counter value in one window (0 when absent).
  double counter_value(std::string_view name, std::int64_t window) const;

  /// Populated window span across every series; false when empty.
  bool window_span(std::int64_t& lo, std::int64_t& hi) const;

  /// Canonical CSV: header + one row per (series, window), kind-major
  /// (counters, gauges, sketches), series sorted by name, windows
  /// ascending.  \p scope labels the first column (cell key or
  /// "aggregate").
  static std::vector<std::string> csv_header();
  void write_csv_rows(sim::CsvWriter& csv, const std::string& scope) const;
  void write_csv(std::ostream& out, const std::string& scope = "run") const;

  /// "hpcs-timeseries-v1" JSON document: window width, sketch layout, and
  /// the three series sections; keys sorted, %.17g numbers — byte-stable
  /// for identical contents and round-trippable via from_json().
  void write_json(std::ostream& out) const;

  /// Rebuilds a store from a parsed "hpcs-timeseries-v1" document.
  /// \throws std::invalid_argument on schema mismatch.
  static TimeSeries from_json(const JsonValue& doc);

 private:
  mutable std::mutex mutex_;
  double window_s_ = 60.0;
  SketchConfig sketch_{};
  SeriesMap<double> counters_;
  SeriesMap<double> gauges_;
  SeriesMap<QuantileSketch> sketches_;
};

}  // namespace hpcs::obs
