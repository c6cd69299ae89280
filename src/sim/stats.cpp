#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hpcs::sim {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void Samples::add(double x) {
  data_.push_back(x);
  sorted_valid_ = false;
}

double Samples::mean() const noexcept {
  if (data_.empty()) return 0.0;
  double s = 0.0;
  for (double v : data_) s += v;
  return s / static_cast<double>(data_.size());
}

double Samples::stddev() const noexcept {
  const std::size_t n = data_.size();
  if (n < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (double v : data_) s += (v - m) * (v - m);
  return std::sqrt(s / static_cast<double>(n - 1));
}

double Samples::min() const {
  if (data_.empty()) throw std::logic_error("Samples::min on empty set");
  return *std::min_element(data_.begin(), data_.end());
}

double Samples::max() const {
  if (data_.empty()) throw std::logic_error("Samples::max on empty set");
  return *std::max_element(data_.begin(), data_.end());
}

double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::logic_error("quantile on empty set");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile out of [0,1]");
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double Samples::quantile(double q) const {
  if (!sorted_valid_) {
    sorted_ = data_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  return sorted_quantile(sorted_, q);
}

double Samples::ci95_halfwidth() const noexcept {
  const std::size_t n = data_.size();
  if (n < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n));
}

LinearFit fit_line(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2)
    throw std::invalid_argument("fit_line: need >=2 equal-length vectors");
  const double n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  if (std::abs(denom) < 1e-300)
    throw std::invalid_argument("fit_line: degenerate x values");
  LinearFit f;
  f.slope = (n * sxy - sx * sy) / denom;
  f.intercept = (sy - f.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double e = y[i] - (f.intercept + f.slope * x[i]);
    ss_res += e * e;
  }
  f.r2 = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
  return f;
}

}  // namespace hpcs::sim
