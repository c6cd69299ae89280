#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "obs/export.hpp"

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::uint64_t> t_open;

int thread_track() {
  static std::atomic<int> next{0};
  thread_local const int track = next.fetch_add(1);
  return track;
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void Tracer::record(Span span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  {
    std::lock_guard lock(mutex_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

void Tracer::write_chrome_trace(std::ostream& out,
                                const std::string& process) const {
  hpcs::obs::TraceData data;
  for (const Span& s : spans()) {
    hpcs::obs::SpanEvent e;
    e.name = std::string(s.name);
    e.category = std::string(s.name.substr(0, s.name.find('.')));
    e.track = s.track;
    e.start = s.start;
    e.duration = s.duration();
    e.id = s.id;
    e.parent = s.parent;
    data.spans.push_back(std::move(e));
  }
  data.canonicalize();
  hpcs::obs::ChromeTraceWriter writer(out);
  writer.process_name(0, process);
  writer.add(data, 0);
  writer.finish();
}

Tracer::Scope::Scope(Tracer* tracer, std::string_view name,
                     std::uint64_t parent)
    : tracer_(tracer) {
  if (!tracer_) return;
  span_.name = name;
  span_.id = tracer_->next_id_.fetch_add(1);
  span_.parent = parent != 0 ? parent : (t_open.empty() ? 0 : t_open.back());
  span_.track = thread_track();
  t_open.push_back(span_.id);
  span_.start = tracer_->now();
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  span_.end = tracer_->now();
  t_open.pop_back();
  tracer_->record(std::move(span_));
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans)
    if (const auto it = index.find(s.parent); it != index.end())
      children[it->second].emplace_back(s.start, s.end);

  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = s.start;
    for (const auto& [start, end] : kids) {
      const double lo = std::max(start, cursor);
      const double hi = std::min(end, s.end);
      if (hi > lo) covered += hi - lo;
      cursor = std::max(cursor, std::min(end, s.end));
    }
    self[i] = std::max(0.0, s.duration() - covered);
  }
  return self;
}

Summary summarize(std::vector<double> samples) {
  Summary out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const auto rank = [&](double q) {
    // Nearest rank: the smallest value with at least q of the samples at
    // or below it.
    const auto k = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size()) - 1e-9));
    return std::max<std::size_t>(k, 1);
  };
  out.p50 = samples[rank(0.5) - 1];
  out.tail = out.p50;
  out.max = samples.back();
  for (const double q : {0.999, 0.99, 0.9, 0.5}) {
    if (samples.size() - rank(q) >= 10) {
      out.tail = samples[rank(q) - 1];
      out.tail_q = q;
      break;
    }
  }
  return out;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

}  // namespace perfbench
