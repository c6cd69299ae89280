#include "obs/metrics.hpp"

#include <cstdio>

#include "obs/export.hpp"

namespace hpcs::obs {

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_key(const std::string& s) {
  return '"' + json_escape(s) + '"';
}

}  // namespace

Metrics::Metrics(const Metrics& other) {
  std::lock_guard lock(other.mutex_);
  counters_ = other.counters_;
  gauges_ = other.gauges_;
  histograms_ = other.histograms_;
}

Metrics& Metrics::operator=(const Metrics& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(mutex_, other.mutex_);
  counters_ = other.counters_;
  gauges_ = other.gauges_;
  histograms_ = other.histograms_;
  return *this;
}

void Metrics::count(std::string_view name, double delta) {
  std::lock_guard lock(mutex_);
  counters_[std::string(name)] += delta;
}

void Metrics::gauge(std::string_view name, double value) {
  std::lock_guard lock(mutex_);
  gauges_[std::string(name)] = value;
}

void Metrics::observe(std::string_view name, double value) {
  std::lock_guard lock(mutex_);
  histograms_[std::string(name)].add(value);
}

void Metrics::observe(std::string_view name, const sim::Samples& samples) {
  if (samples.empty()) return;
  std::lock_guard lock(mutex_);
  sim::RunningStats& histogram = histograms_[std::string(name)];
  for (const double value : samples.values()) histogram.add(value);
}

void Metrics::merge(const Metrics& other) {
  if (this == &other) return;
  std::scoped_lock lock(mutex_, other.mutex_);
  for (const auto& [name, v] : other.counters_) counters_[name] += v;
  for (const auto& [name, v] : other.gauges_) {
    const auto it = gauges_.find(name);
    if (it == gauges_.end() || it->second < v) gauges_[name] = v;
  }
  for (const auto& [name, h] : other.histograms_)
    histograms_[name].merge(h);
}

bool Metrics::empty() const {
  std::lock_guard lock(mutex_);
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

double Metrics::counter_value(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = counters_.find(std::string(name));
  return it == counters_.end() ? 0.0 : it->second;
}

std::optional<double> Metrics::gauge_value(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = gauges_.find(std::string(name));
  if (it == gauges_.end()) return std::nullopt;
  return it->second;
}

std::optional<sim::RunningStats> Metrics::histogram(
    std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = histograms_.find(std::string(name));
  if (it == histograms_.end()) return std::nullopt;
  return it->second;
}

std::map<std::string, double> Metrics::counters() const {
  std::lock_guard lock(mutex_);
  return counters_;
}

void Metrics::write_json(std::ostream& out) const {
  std::lock_guard lock(mutex_);
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    out << (first ? "\n" : ",\n") << "    " << json_key(name) << ": "
        << num(v);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges_) {
    out << (first ? "\n" : ",\n") << "    " << json_key(name) << ": "
        << num(v);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out << (first ? "\n" : ",\n") << "    " << json_key(name)
        << ": {\"count\": " << h.count() << ", \"mean\": " << num(h.mean())
        << ", \"stddev\": " << num(h.stddev())
        << ", \"min\": " << num(h.min()) << ", \"max\": " << num(h.max())
        << ", \"sum\": " << num(h.sum()) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

}  // namespace hpcs::obs
