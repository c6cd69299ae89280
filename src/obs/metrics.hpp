#pragma once

/// \file metrics.hpp
/// \brief The metrics registry: counters, gauges, and Welford histograms.
///
/// Names are hierarchical slash-paths ("deploy/pull_retries",
/// "runner/step_time_s"); see docs/observability.md for the conventions.
/// Merging is the heart of the design: every campaign cell accumulates its
/// own Metrics and the campaign folds them together *in cell-index order*,
/// so aggregated values are independent of worker count and completion
/// order.  Counter and histogram merges are associative; gauges merge by
/// maximum (the only order-free choice without timestamps).

#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "sim/stats.hpp"

namespace hpcs::obs {

/// Thread-safe named-metric accumulator.
class Metrics {
 public:
  Metrics() = default;
  Metrics(const Metrics& other);
  Metrics& operator=(const Metrics& other);

  /// Adds \p delta to the named counter (created at 0).
  void count(std::string_view name, double delta = 1.0);

  /// Sets the named gauge to \p value (last write wins locally).
  void gauge(std::string_view name, double value);

  /// Feeds \p value into the named Welford histogram.
  void observe(std::string_view name, double value);
  /// Feeds every value of \p samples, in insertion order, into the named
  /// histogram; an empty sample set leaves the registry as it was.
  void observe(std::string_view name, const sim::Samples& samples);

  /// Folds \p other in: counters add, histograms Welford-combine, gauges
  /// keep the maximum.  Associative and commutative except for gauge
  /// last-write locality, hence the max rule.
  void merge(const Metrics& other);

  bool empty() const;

  /// Counter value; 0 for unknown names.
  double counter_value(std::string_view name) const;
  /// Gauge value; nullopt for unknown names.
  std::optional<double> gauge_value(std::string_view name) const;
  /// Histogram snapshot; nullopt for unknown names.
  std::optional<sim::RunningStats> histogram(std::string_view name) const;

  /// Snapshot for deterministic iteration (sorted by name).
  std::map<std::string, double> counters() const;

  /// Writes the registry as a JSON object ({"counters": ..., "gauges":
  /// ..., "histograms": ...}), keys sorted, %.17g numbers — byte-stable
  /// for identical contents.
  void write_json(std::ostream& out) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, sim::RunningStats> histograms_;
};

}  // namespace hpcs::obs
