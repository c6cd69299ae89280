#pragma once

/// \file stats.hpp
/// \brief Online and batch statistics used to summarize simulated runs.
///
/// The paper reports *average* elapsed times per configuration; we keep full
/// sample sets per scenario so benches can additionally report spread
/// (stddev, min/max, percentiles, 95% CI) like a careful measurement study
/// would.

#include <cstddef>
#include <vector>

namespace hpcs::sim {

/// Numerically stable (Welford) running mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x) noexcept;

  /// Merges another accumulator (parallel reduction of per-thread stats).
  void merge(const RunningStats& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Quantile \p q in [0,1] of the ascending \p sorted values, by linear
/// interpolation between order statistics.  Samples::quantile and callers
/// that keep their own sorted copy share this one formula, so both give
/// the same bits for the same values.
/// \throws std::logic_error when \p sorted is empty,
///         std::invalid_argument for q outside [0,1].
double sorted_quantile(const std::vector<double>& sorted, double q);

/// Batch sample container with quantiles and confidence intervals.
///
/// Keeps every sample.  add() is O(1) and invalidates the sorted cache,
/// so the first quantile() after any add() copies and sorts all n values:
/// cheap when queries come after a batch of adds (per-time-step
/// durations, grid summaries), O(n log n) per query when adds and
/// queries interleave.  A caller that queries after every add should
/// keep its own sorted vector and call sorted_quantile().
class Samples {
 public:
  void add(double x);
  void reserve(std::size_t n) { data_.reserve(n); }

  std::size_t count() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }
  double mean() const noexcept;
  double stddev() const noexcept;
  double min() const;
  double max() const;

  /// sorted_quantile() of the samples.  Requires a non-empty sample set.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

  /// Half-width of the two-sided 95% confidence interval on the mean,
  /// using the normal approximation (adequate for n >= ~30; conservative
  /// enough for our reporting below that).
  double ci95_halfwidth() const noexcept;

  const std::vector<double>& values() const noexcept { return data_; }

 private:
  std::vector<double> data_;
  mutable std::vector<double> sorted_;  // lazily rebuilt cache for quantiles
  mutable bool sorted_valid_ = false;
};

/// Least-squares fit y = a + b*x; used by tests to verify scaling exponents
/// (e.g. halo bytes ~ elements^(2/3) on log-log axes).
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};
LinearFit fit_line(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace hpcs::sim
