#include "obs/timeseries.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "obs/export.hpp"
#include "obs/json.hpp"

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

/// The windows of series \p name, created empty on first use; the key
/// string is built only then.
template <class V>
std::map<std::int64_t, V>& series(TimeSeries::SeriesMap<V>& store,
                                  std::string_view name) {
  const auto it = store.find(name);
  if (it != store.end()) return it->second;
  return store.emplace(std::string(name), std::map<std::int64_t, V>{})
      .first->second;
}

}  // namespace

TimeSeries::TimeSeries(double window_s, SketchConfig sketch)
    : window_s_(window_s), sketch_(sketch) {
  if (!(window_s > 0.0) || !std::isfinite(window_s))
    throw std::invalid_argument("TimeSeries: window_s must be > 0");
  sketch_.validate();
}

TimeSeries::TimeSeries(const TimeSeries& other) {
  std::lock_guard lock(other.mutex_);
  window_s_ = other.window_s_;
  sketch_ = other.sketch_;
  counters_ = other.counters_;
  gauges_ = other.gauges_;
  sketches_ = other.sketches_;
}

TimeSeries& TimeSeries::operator=(const TimeSeries& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(mutex_, other.mutex_);
  window_s_ = other.window_s_;
  sketch_ = other.sketch_;
  counters_ = other.counters_;
  gauges_ = other.gauges_;
  sketches_ = other.sketches_;
  return *this;
}

std::int64_t TimeSeries::window_of(double t) const {
  return static_cast<std::int64_t>(std::floor(t / window_s_));
}

double TimeSeries::window_start(std::int64_t w) const {
  return static_cast<double>(w) * window_s_;
}

void TimeSeries::count(std::string_view name, double t, double delta) {
  std::lock_guard lock(mutex_);
  series(counters_, name)[window_of(t)] += delta;
}

void TimeSeries::gauge(std::string_view name, double t, double value) {
  std::lock_guard lock(mutex_);
  auto& window = series(gauges_, name);
  const std::int64_t w = window_of(t);
  const auto it = window.find(w);
  if (it == window.end() || it->second < value) window[w] = value;
}

void TimeSeries::observe(std::string_view name, double t, double value) {
  std::lock_guard lock(mutex_);
  auto& window = series(sketches_, name);
  const std::int64_t w = window_of(t);
  auto it = window.find(w);
  if (it == window.end())
    it = window.emplace(w, QuantileSketch(sketch_)).first;
  it->second.add(value);
}

void TimeSeries::merge(const TimeSeries& other) {
  if (this == &other) return;
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  std::scoped_lock lock(mutex_, other.mutex_);
  if (window_s_ != other.window_s_)
    throw std::invalid_argument("TimeSeries::merge: window width mismatch");
  if (!(sketch_ == other.sketch_))
    throw std::invalid_argument("TimeSeries::merge: sketch layout mismatch");
  for (const auto& [name, windows] : other.counters_) {
    auto& mine = counters_[name];
    for (const auto& [w, v] : windows) mine[w] += v;
  }
  for (const auto& [name, windows] : other.gauges_) {
    auto& mine = gauges_[name];
    for (const auto& [w, v] : windows) {
      const auto it = mine.find(w);
      if (it == mine.end() || it->second < v) mine[w] = v;
    }
  }
  for (const auto& [name, windows] : other.sketches_) {
    auto& mine = sketches_[name];
    for (const auto& [w, sketch] : windows) mine[w].merge(sketch);
  }
}

bool TimeSeries::empty() const {
  std::lock_guard lock(mutex_);
  return counters_.empty() && gauges_.empty() && sketches_.empty();
}

TimeSeries::SeriesMap<double> TimeSeries::counters() const {
  std::lock_guard lock(mutex_);
  return counters_;
}

TimeSeries::SeriesMap<double> TimeSeries::gauges() const {
  std::lock_guard lock(mutex_);
  return gauges_;
}

TimeSeries::SeriesMap<QuantileSketch> TimeSeries::sketches() const {
  std::lock_guard lock(mutex_);
  return sketches_;
}

double TimeSeries::counter_total(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = counters_.find(name);
  if (it == counters_.end()) return 0.0;
  double total = 0.0;
  for (const auto& [w, v] : it->second) total += v;
  return total;
}

double TimeSeries::counter_value(std::string_view name,
                                 std::int64_t window) const {
  std::lock_guard lock(mutex_);
  const auto it = counters_.find(name);
  if (it == counters_.end()) return 0.0;
  const auto wit = it->second.find(window);
  return wit == it->second.end() ? 0.0 : wit->second;
}

bool TimeSeries::window_span(std::int64_t& lo, std::int64_t& hi) const {
  std::lock_guard lock(mutex_);
  bool any = false;
  const auto fold = [&](std::int64_t w) {
    if (!any) {
      lo = hi = w;
      any = true;
      return;
    }
    if (w < lo) lo = w;
    if (w > hi) hi = w;
  };
  for (const auto& [name, windows] : counters_)
    for (const auto& [w, v] : windows) fold(w);
  for (const auto& [name, windows] : gauges_)
    for (const auto& [w, v] : windows) fold(w);
  for (const auto& [name, windows] : sketches_)
    for (const auto& [w, sketch] : windows) fold(w);
  return any;
}

std::vector<std::string> TimeSeries::csv_header() {
  return {"scope", "series", "kind", "window", "start_s", "value",
          "count", "p50",    "p95",  "p99",    "min",     "max"};
}

void TimeSeries::write_csv_rows(sim::CsvWriter& csv,
                                const std::string& scope) const {
  std::lock_guard lock(mutex_);
  using sim::CsvWriter;
  for (const auto& [name, windows] : counters_)
    for (const auto& [w, v] : windows)
      csv.row({CsvWriter::escape(scope), CsvWriter::escape(name), "counter",
               CsvWriter::cell(static_cast<long long>(w)),
               CsvWriter::cell(window_start(w)), CsvWriter::cell(v), "0", "0",
               "0", "0", "0", "0"});
  for (const auto& [name, windows] : gauges_)
    for (const auto& [w, v] : windows)
      csv.row({CsvWriter::escape(scope), CsvWriter::escape(name), "gauge",
               CsvWriter::cell(static_cast<long long>(w)),
               CsvWriter::cell(window_start(w)), CsvWriter::cell(v), "0", "0",
               "0", "0", "0", "0"});
  for (const auto& [name, windows] : sketches_)
    for (const auto& [w, sketch] : windows)
      csv.row({CsvWriter::escape(scope), CsvWriter::escape(name), "sketch",
               CsvWriter::cell(static_cast<long long>(w)),
               CsvWriter::cell(window_start(w)), CsvWriter::cell(sketch.mean()),
               CsvWriter::cell(static_cast<std::size_t>(sketch.count())),
               CsvWriter::cell(sketch.quantile(0.50)),
               CsvWriter::cell(sketch.quantile(0.95)),
               CsvWriter::cell(sketch.quantile(0.99)),
               CsvWriter::cell(sketch.min()), CsvWriter::cell(sketch.max())});
}

void TimeSeries::write_csv(std::ostream& out, const std::string& scope) const {
  sim::CsvWriter csv(out, csv_header());
  write_csv_rows(csv, scope);
}

void TimeSeries::write_json(std::ostream& out) const {
  std::lock_guard lock(mutex_);
  out << "{\n  \"schema\": \"hpcs-timeseries-v1\",\n  \"window_s\": "
      << num(window_s_) << ",\n  \"sketch_config\": {\"min_value\": "
      << num(sketch_.min_value) << ", \"max_value\": " << num(sketch_.max_value)
      << ", \"buckets_per_decade\": " << sketch_.buckets_per_decade << "},\n";
  out << "  \"counters\": {";
  bool first_series = true;
  for (const auto& [name, windows] : counters_) {
    out << (first_series ? "\n" : ",\n") << "    " << json_key(name) << ": {";
    bool first = true;
    for (const auto& [w, v] : windows) {
      out << (first ? "" : ", ") << '"' << w << "\": " << num(v);
      first = false;
    }
    out << "}";
    first_series = false;
  }
  out << (first_series ? "" : "\n  ") << "},\n  \"gauges\": {";
  first_series = true;
  for (const auto& [name, windows] : gauges_) {
    out << (first_series ? "\n" : ",\n") << "    " << json_key(name) << ": {";
    bool first = true;
    for (const auto& [w, v] : windows) {
      out << (first ? "" : ", ") << '"' << w << "\": " << num(v);
      first = false;
    }
    out << "}";
    first_series = false;
  }
  out << (first_series ? "" : "\n  ") << "},\n  \"sketches\": {";
  first_series = true;
  for (const auto& [name, windows] : sketches_) {
    out << (first_series ? "\n" : ",\n") << "    " << json_key(name) << ": {";
    bool first_window = true;
    for (const auto& [w, sketch] : windows) {
      out << (first_window ? "\n" : ",\n") << "      \"" << w
          << "\": {\"count\": " << sketch.count()
          << ", \"sum\": " << num(sketch.sum())
          << ", \"min\": " << num(sketch.min())
          << ", \"max\": " << num(sketch.max()) << ", \"buckets\": {";
      bool first = true;
      for (const auto& [index, n] : sketch.buckets()) {
        out << (first ? "" : ", ") << '"' << index << "\": " << n;
        first = false;
      }
      out << "}}";
      first_window = false;
    }
    out << (first_window ? "" : "\n    ") << "}";
    first_series = false;
  }
  out << (first_series ? "" : "\n  ") << "}\n}\n";
}

TimeSeries TimeSeries::from_json(const JsonValue& doc) {
  if (doc.at("schema").string_or("") != "hpcs-timeseries-v1")
    throw std::invalid_argument(
        "TimeSeries::from_json: not hpcs-timeseries-v1");
  SketchConfig sketch_config;
  const JsonValue& layout = doc.at("sketch_config");
  sketch_config.min_value = layout.at("min_value").number_or(0.0);
  sketch_config.max_value = layout.at("max_value").number_or(0.0);
  sketch_config.buckets_per_decade =
      static_cast<int>(layout.at("buckets_per_decade").number_or(0.0));
  TimeSeries ts(doc.at("window_s").number_or(0.0), sketch_config);
  for (const auto& [name, windows] : doc.at("counters").members)
    for (const auto& [key, value] : windows.members)
      ts.counters_[name][std::stoll(key)] = value.number_or(0.0);
  for (const auto& [name, windows] : doc.at("gauges").members)
    for (const auto& [key, value] : windows.members)
      ts.gauges_[name][std::stoll(key)] = value.number_or(0.0);
  for (const auto& [name, windows] : doc.at("sketches").members) {
    for (const auto& [key, body] : windows.members) {
      std::map<int, std::uint64_t> buckets;
      for (const auto& [index, n] : body.at("buckets").members)
        buckets[std::stoi(index)] =
            static_cast<std::uint64_t>(n.number_or(0.0));
      ts.sketches_[name][std::stoll(key)] = QuantileSketch::restore(
          sketch_config,
          static_cast<std::uint64_t>(body.at("count").number_or(0.0)),
          body.at("sum").number_or(0.0), body.at("min").number_or(0.0),
          body.at("max").number_or(0.0), std::move(buckets));
    }
  }
  return ts;
}

}  // namespace hpcs::obs
