#pragma once

/// \file report.hpp
/// \brief The benchmark's metric catalog, the per-layer values derived
///        from a traced run's spans, and the printed report.

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics every untraced run prints, in BENCHMARK.json
/// order.
const std::vector<MetricDef>& end_to_end_metrics();

/// The per-layer metrics every traced run prints, in BENCHMARK.json
/// order; a metric of a layer the workload does not exercise reads 0.
/// A timing "<layer>.<op>_s" comes with ".p50", ".tail" and ".n", all
/// fed by the spans named "<layer>.<op>" or "<layer>.<op>/...".
const std::vector<MetricDef>& per_layer_metrics();

/// Every ratio-like per-layer metric and its bases, (numerator,
/// denominator); the report prints each ratio with both.
struct RatioBases {
  std::string numerator;
  std::string denominator;
};
const std::vector<std::pair<std::string, RatioBases>>& ratio_bases();

/// Timing metrics from the spans: self seconds (per traced pass for spans
/// under "run.pass", for the whole split under "run.split"), and the
/// p50, tail and count of the per-call self times.
void timing_values(const std::vector<Span>& spans, Values& values);

/// The per-span and per-layer tables of a traced run, every ratio with
/// its bases, then \p notes.
void print_layer_table(std::ostream& out, const std::string& workload,
                       const std::vector<Span>& spans, const Values& values,
                       const std::vector<std::string>& notes);

struct Outcome {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// The one-line JSON result: correct, attempted, failed, and every metric
/// of \p defs with its value from \p values (0 when absent).
std::string result_json(const Outcome& outcome,
                        const std::vector<MetricDef>& defs,
                        const Values& values);

}  // namespace perfbench
