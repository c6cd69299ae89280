#include "obs/export.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>

#include "sim/csv.hpp"

namespace hpcs::obs {

namespace {

/// Appends \p seconds as microseconds with fixed 3 fractional digits
/// (nanosecond resolution): byte-stable and ample for simulated phases.
/// std::to_chars in fixed form with a precision prints what printf's
/// "%.3f" prints, without a format string or the locale.
void append_usec(std::string& out, double seconds) {
  // Room for the widest double in fixed form: 309 integer digits, the
  // sign, the point and 3 decimals.
  char buf[320];
  const auto res = std::to_chars(buf, buf + sizeof buf, seconds * 1e6,
                                 std::chars_format::fixed, 3);
  out.append(buf, res.ptr);
}

/// Appends json_escape(\p s) without building it when nothing needs
/// escaping, the common case.
void append_escaped(std::string& out, const std::string& s) {
  const bool plain = std::none_of(s.begin(), s.end(), [](char c) {
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
  });
  if (plain) {
    out += s;
  } else {
    out += json_escape(s);
  }
}

void append_args(std::string& out, const EventArgs& args) {
  if (args.empty()) return;
  out += ",\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i) out += ',';
    out += '"';
    append_escaped(out, args[i].first);
    out += "\":\"";
    append_escaped(out, args[i].second);
    out += '"';
  }
  out += '}';
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

ChromeTraceWriter::ChromeTraceWriter(std::ostream& out) : out_(out) {
  out_ << "{\"traceEvents\":[\n";
}

void ChromeTraceWriter::comma() {
  if (!first_) out_ << ",\n";
  first_ = false;
}

void ChromeTraceWriter::process_name(int pid, const std::string& name) {
  comma();
  out_ << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
}

void ChromeTraceWriter::add(const TraceData& data, int pid,
                            double time_offset_s) {
  // Traces from MemorySink::take() are canonical and are written in
  // place; any other order is written from a canonicalized copy.
  if (!std::is_sorted(data.spans.begin(), data.spans.end(), span_before) ||
      !std::is_sorted(data.instants.begin(), data.instants.end(),
                      instant_before)) {
    TraceData sorted = data;
    sorted.canonicalize();
    add(sorted, pid, time_offset_s);
    return;
  }
  // Each event is formatted into one reused buffer and written at once.
  std::string line;
  const auto begin_event = [&](const std::string& name,
                               const std::string& category) {
    line.clear();
    if (!first_) line += ",\n";
    first_ = false;
    line += "{\"name\":\"";
    append_escaped(line, name);
    line += "\",\"cat\":\"";
    append_escaped(line, category);
  };
  const auto end_event = [&](const EventArgs& args) {
    append_args(line, args);
    line += '}';
    out_.write(line.data(), static_cast<std::streamsize>(line.size()));
  };
  for (const SpanEvent& s : data.spans) {
    begin_event(s.name, s.category);
    line += "\",\"ph\":\"X\",\"pid\":";
    line += std::to_string(pid);
    line += ",\"tid\":";
    line += std::to_string(s.track);
    line += ",\"ts\":";
    append_usec(line, s.start + time_offset_s);
    line += ",\"dur\":";
    append_usec(line, s.duration);
    end_event(s.args);
  }
  for (const InstantEvent& i : data.instants) {
    begin_event(i.name, i.category);
    line += "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":";
    line += std::to_string(pid);
    line += ",\"tid\":";
    line += std::to_string(i.track);
    line += ",\"ts\":";
    append_usec(line, i.time + time_offset_s);
    end_event(i.args);
  }
}

void ChromeTraceWriter::finish() {
  if (finished_) return;
  finished_ = true;
  out_ << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":"
          "{\"generator\":\"hpcs::obs\",\"timebase\":\"simulated\"}}\n";
}

void write_chrome_trace(std::ostream& out, const TraceData& data,
                        const std::string& process) {
  ChromeTraceWriter w(out);
  w.process_name(0, process);
  w.add(data, 0);
  w.finish();
}

bool save_chrome_trace(const std::string& path, const TraceData& data,
                       const std::string& process) {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out, data, process);
  return out.good();
}

void write_phase_csv(std::ostream& out, const TraceData& data) {
  TraceData sorted = data;
  sorted.canonicalize();
  sim::CsvWriter csv(out, {"track", "category", "name", "start", "duration"});
  for (const auto& s : sorted.spans)
    csv.row({sim::CsvWriter::cell(static_cast<long long>(s.track)),
             s.category, s.name, sim::CsvWriter::cell(s.start),
             sim::CsvWriter::cell(s.duration)});
}

namespace {

/// Prometheus metric-name charset: [a-zA-Z0-9_:]; everything else (our
/// slash-path separators in particular) becomes '_'.
std::string prom_name(const std::string& series) {
  std::string out = "hpcs_";
  for (const char c : series) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string prom_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string window_labels(const TimeSeries& ts, std::int64_t w) {
  char buf[80];
  std::snprintf(buf, sizeof buf, "window=\"%lld\",start_s=\"%.6g\"",
                static_cast<long long>(w), ts.window_start(w));
  return buf;
}

}  // namespace

void write_prom_exposition(std::ostream& out, const TimeSeries& ts) {
  for (const auto& [name, windows] : ts.counters()) {
    const std::string metric = prom_name(name) + "_total";
    out << "# TYPE " << metric << " counter\n";
    for (const auto& [w, v] : windows)
      out << metric << "{" << window_labels(ts, w) << "} " << prom_num(v)
          << "\n";
  }
  for (const auto& [name, windows] : ts.gauges()) {
    const std::string metric = prom_name(name);
    out << "# TYPE " << metric << " gauge\n";
    for (const auto& [w, v] : windows)
      out << metric << "{" << window_labels(ts, w) << "} " << prom_num(v)
          << "\n";
  }
  for (const auto& [name, windows] : ts.sketches()) {
    const std::string metric = prom_name(name);
    out << "# TYPE " << metric << " summary\n";
    for (const auto& [w, sketch] : windows) {
      const std::string labels = window_labels(ts, w);
      for (const double q : {0.5, 0.95, 0.99}) {
        // Conventional short quantile labels ("0.95", not the %.17g
        // round-trip form reserved for sample values).
        char qbuf[16];
        std::snprintf(qbuf, sizeof qbuf, "%g", q);
        out << metric << "{" << labels << ",quantile=\"" << qbuf << "\"} "
            << prom_num(sketch.quantile(q)) << "\n";
      }
      out << metric << "_sum{" << labels << "} " << prom_num(sketch.sum())
          << "\n";
      out << metric << "_count{" << labels << "} " << sketch.count() << "\n";
    }
  }
}

}  // namespace hpcs::obs
