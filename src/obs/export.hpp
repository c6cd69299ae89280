#pragma once

/// \file export.hpp
/// \brief Trace serializers: Chrome `chrome://tracing` JSON and
///        Paraver-style phase CSV.
///
/// All writers emit events in canonical order (events.hpp) with fixed
/// numeric formatting, so two structurally identical traces — e.g. the
/// same campaign at `--jobs 1` and `--jobs 4` — serialize to identical
/// bytes.  Open the JSON in chrome://tracing or https://ui.perfetto.dev.

#include <ostream>
#include <string>

#include "obs/collector.hpp"

namespace hpcs::obs {

/// Escapes \p s for embedding inside a JSON string literal: quotes,
/// backslashes, and every control character below 0x20 (so span/process
/// names survive `python3 -m json.tool` round-trips).  Shared by every
/// writer that emits names — trace, metrics, campaign, and report JSON.
std::string json_escape(const std::string& s);

/// Streams Chrome trace-event JSON ("X" complete spans and "i" instants).
/// Usage: construct, add() each run's TraceData under its pid, finish().
class ChromeTraceWriter {
 public:
  /// Writes the JSON preamble to \p out (kept by reference).
  explicit ChromeTraceWriter(std::ostream& out);

  /// Emits process/thread metadata naming \p pid (e.g. the campaign cell
  /// key) in the trace viewer's process list.
  void process_name(int pid, const std::string& name);

  /// Emits \p data's events under \p pid.  \p time_offset_s shifts every
  /// timestamp (used to lay independent timebases end-to-end).
  ///
  /// Cost: one is_sorted pass per event set, then one formatted write per
  /// event.  A canonical \p data (what MemorySink::take() returns) is
  /// never copied; any other is copied and canonicalized first.
  void add(const TraceData& data, int pid, double time_offset_s = 0.0);

  /// Closes the JSON document; further calls are invalid.  Idempotent.
  void finish();

 private:
  void comma();

  std::ostream& out_;
  bool first_ = true;
  bool finished_ = false;
};

/// Convenience: one run's trace as a complete JSON document.
void write_chrome_trace(std::ostream& out, const TraceData& data,
                        const std::string& process = "run");
bool save_chrome_trace(const std::string& path, const TraceData& data,
                       const std::string& process = "run");

/// Paraver-style flat CSV ("track,category,name,start,duration") of the
/// span set, in canonical order.
void write_phase_csv(std::ostream& out, const TraceData& data);

/// Prometheus-style text exposition of a windowed time-series store:
/// counters as `hpcs_<name>_total`, gauges as `hpcs_<name>`, sketches as
/// summaries (quantile/sum/count), one sample per populated window with
/// `window` and `start_s` labels.  Series names sanitize slashes to
/// underscores; output order is canonical (kind-major, then name, then
/// window), so identical stores expose identical bytes.
void write_prom_exposition(std::ostream& out, const TimeSeries& ts);

}  // namespace hpcs::obs
