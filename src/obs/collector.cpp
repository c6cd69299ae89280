#include "obs/collector.hpp"

#include <algorithm>
#include <utility>

namespace hpcs::obs {

bool span_before(const SpanEvent& a, const SpanEvent& b) noexcept {
  if (a.track != b.track) return a.track < b.track;
  if (a.start != b.start) return a.start < b.start;
  // Longest first, so enclosing spans precede their children.
  if (a.duration != b.duration) return a.duration > b.duration;
  return a.id < b.id;
}

bool instant_before(const InstantEvent& a, const InstantEvent& b) noexcept {
  if (a.track != b.track) return a.track < b.track;
  if (a.time != b.time) return a.time < b.time;
  return a.name < b.name;
}

void TraceData::canonicalize() {
  std::stable_sort(spans.begin(), spans.end(), span_before);
  std::stable_sort(instants.begin(), instants.end(), instant_before);
}

void MemorySink::on_span(SpanEvent event) {
  std::lock_guard lock(mutex_);
  data_.spans.push_back(std::move(event));
}

void MemorySink::on_instant(InstantEvent event) {
  std::lock_guard lock(mutex_);
  data_.instants.push_back(std::move(event));
}

TraceData MemorySink::take() {
  std::lock_guard lock(mutex_);
  TraceData out = std::move(data_);
  data_ = TraceData{};
  out.canonicalize();
  return out;
}

Collector::Collector(std::shared_ptr<Sink> sink) : sink_(std::move(sink)) {}

void Collector::span(int track, std::string_view name,
                     std::string_view category, double start,
                     double duration, EventArgs args) {
  if (!sink_) return;
  SpanEvent e;
  e.name = std::string(name);
  e.category = std::string(category);
  e.track = track;
  e.start = start;
  e.duration = duration;
  e.args = std::move(args);
  {
    std::lock_guard lock(mutex_);
    e.id = next_id_++;
    const auto it = open_.find(track);
    if (it != open_.end() && !it->second.empty())
      e.parent = it->second.back().id;
    double& cursor = cursors_[track];
    cursor = std::max(cursor, e.end());
  }
  sink_->on_span(std::move(e));
}

void Collector::instant(int track, std::string_view name,
                        std::string_view category, double time,
                        EventArgs args) {
  if (!sink_) return;
  InstantEvent e;
  e.name = std::string(name);
  e.category = std::string(category);
  e.track = track;
  e.time = time;
  e.args = std::move(args);
  {
    std::lock_guard lock(mutex_);
    double& cursor = cursors_[track];
    cursor = std::max(cursor, time);
  }
  sink_->on_instant(std::move(e));
}

void Collector::count(std::string_view name, double delta) {
  if (!sink_) return;
  metrics_.count(name, delta);
}

void Collector::gauge(std::string_view name, double value) {
  if (!sink_) return;
  metrics_.gauge(name, value);
}

void Collector::observe(std::string_view name, double value) {
  if (!sink_) return;
  metrics_.observe(name, value);
}

void Collector::enable_timeseries(double window_s, SketchConfig sketch) {
  if (!sink_) return;
  timeseries_ = std::make_unique<TimeSeries>(window_s, sketch);
}

void Collector::ts_count(std::string_view name, double t, double delta) {
  if (!timeseries_) return;
  timeseries_->count(name, t, delta);
}

void Collector::ts_gauge(std::string_view name, double t, double value) {
  if (!timeseries_) return;
  timeseries_->gauge(name, t, value);
}

void Collector::ts_observe(std::string_view name, double t, double value) {
  if (!timeseries_) return;
  timeseries_->observe(name, t, value);
}

TimeSeries Collector::timeseries() const {
  return timeseries_ ? *timeseries_ : TimeSeries{};
}

double Collector::cursor(int track) const {
  std::lock_guard lock(mutex_);
  const auto it = cursors_.find(track);
  return it == cursors_.end() ? 0.0 : it->second;
}

std::map<std::string, sim::RunningStats> Collector::host_stats() const {
  std::lock_guard lock(mutex_);
  return host_stats_;
}

std::uint64_t Collector::open_span(int track, std::string_view name,
                                   std::string_view category, double start) {
  std::lock_guard lock(mutex_);
  OpenSpan s;
  s.name = std::string(name);
  s.category = std::string(category);
  s.start = start;
  s.id = next_id_++;
  auto& stack = open_[track];
  if (!stack.empty()) s.parent = stack.back().id;
  double& cursor = cursors_[track];
  cursor = std::max(cursor, start);
  const std::uint64_t id = s.id;
  stack.push_back(std::move(s));
  return id;
}

void Collector::close_span(int track, std::uint64_t id, double end) {
  SpanEvent e;
  {
    std::lock_guard lock(mutex_);
    auto& stack = open_[track];
    // Close everything above the target too: a mis-nested caller loses
    // inner spans' explicit ends, not well-formedness.
    while (!stack.empty()) {
      OpenSpan top = std::move(stack.back());
      stack.pop_back();
      if (top.id != id) continue;
      e.name = std::move(top.name);
      e.category = std::move(top.category);
      e.track = track;
      e.start = top.start;
      e.duration = std::max(0.0, end - top.start);
      e.id = top.id;
      e.parent = top.parent;
      e.args = std::move(top.args);
      break;
    }
    if (e.id == 0) return;  // span was already closed
    double& cursor = cursors_[track];
    cursor = std::max(cursor, e.end());
  }
  sink_->on_span(std::move(e));
}

void Collector::observe_host(const std::string& category, double seconds) {
  std::lock_guard lock(mutex_);
  host_stats_[category].add(seconds);
}

SpanScope::SpanScope(Collector& collector, int track, std::string_view name,
                     std::string_view category, double start)
    : collector_(collector), track_(track) {
  if (!collector_.enabled()) return;
  category_ = std::string(category);
  host_start_ = std::chrono::steady_clock::now();
  id_ = collector_.open_span(track, name, category, start);
}

void SpanScope::close(double end) {
  if (id_ == 0 || closed_) return;
  closed_ = true;
  collector_.close_span(track_, id_, end);
  collector_.observe_host(
      category_,
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start_)
          .count());
}

SpanScope::~SpanScope() {
  if (id_ != 0 && !closed_) close(collector_.cursor(track_));
}

}  // namespace hpcs::obs
