// perfbench: the end-to-end benchmark driver.  Runs one named workload
// for a measured interval and prints, as the last line of stdout, one JSON
// object with the correctness verdict and the end-to-end metrics (or,
// with --trace 1, the per-layer metrics of a traced run).
//
//   perfbench --workload gateway-chaos --seed 1 --seconds 10 --trace 0
//
// Normally launched through `python3 perfbench/run.py`, which builds it.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "gate.hpp"
#include "obs/analysis.hpp"
#include "report.hpp"
#include "sim/rng.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb = perfbench;

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool pin = false;
  std::string pins_dir = "perfbench/pins";
  std::string out_dir = ".bench_out";
};

int usage(std::ostream& out, int code) {
  out << "usage: perfbench --workload NAME [--seed N] [--seconds S] "
         "[--trace 0|1]\n"
         "                 [--pins DIR] [--out DIR] [--pin]\n"
         "  --workload NAME  paper-campaign | gateway-chaos | sched-backfill "
         "| artery-fsi\n"
         "  --seed N         workload seed (default 1, the pinned seed)\n"
         "  --seconds S      measured interval (default 10)\n"
         "  --trace 0|1      1: traced run with the per-layer split\n"
         "  --pins DIR       pinned reference outputs (default "
         "perfbench/pins)\n"
         "  --out DIR        where a traced run writes its Chrome trace "
         "(default .bench_out)\n"
         "  --pin            write this seed's outputs as the pins and exit\n";
  return code;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + ": missing value");
      return argv[++i];
    };
    if (flag == "--workload") {
      o.workload = value();
    } else if (flag == "--seed") {
      o.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value());
      if (!(o.seconds > 0)) throw std::invalid_argument("--seconds: must be > 0");
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace: 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--pins") {
      o.pins_dir = value();
    } else if (flag == "--out") {
      o.out_dir = value();
    } else if (flag == "--pin") {
      o.pin = true;
    } else {
      throw std::invalid_argument("unknown flag '" + flag + "'");
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

/// W = min(2, CPUs this process may run on).  Two, not every core: on a
/// shared 4-core host a pool of four measured the other tenants' load
/// (two busy cores elsewhere made the grids 40% slower).
int pool_workers() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof set, &set) == 0
                       ? CPU_COUNT(&set)
                       : 1;
  return std::max(1, std::min(2, cpus));
}

/// User + system CPU seconds of the whole process (all threads).
double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB on Linux
}

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

constexpr int kSetupReps = 5;

/// Median of calibration_seconds() on the reference host (4-vCPU Intel
/// Xeon KVM guest, gcc 12, Release) while it ran at its usual speed.
constexpr double kReferenceCalibrationS = 0.04;

/// Seconds a fixed job takes now, a gauge of the host's current speed.  The
/// job mixes the workloads' kinds of work: dependent floating-point sweeps
/// over vectors (alya's CG solves) and sorting and hashing (the event
/// queues, caches and maps of the discrete-event layers).  Its working set
/// (about 1 MB) stays in cache and adds little to peak_rss_mb.
double calibration_seconds() {
  constexpr std::size_t kN = std::size_t{1} << 15;
  std::uint64_t state = 0x243f6a8885a308d3ULL;
  std::vector<std::uint64_t> keys(kN);
  std::vector<double> a(kN), b(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    keys[i] = hpcs::sim::splitmix64(state);
    a[i] = static_cast<double>(keys[i] >> 11) * 0x1p-53;
    b[i] = 1.0 - a[i];
  }
  const auto t0 = Clock::now();
  double dot = 0.0;
  for (int sweep = 0; sweep < 120; ++sweep)
    for (std::size_t i = 0; i < kN; ++i) {
      a[i] += 1e-3 * b[i];
      dot += a[i] * b[i];
    }
  std::uint64_t mix = 0;
  for (int round = 0; round < 12; ++round) {
    std::vector<std::uint64_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    std::unordered_map<std::uint64_t, std::uint64_t> counts;
    for (std::size_t i = 0; i < kN; ++i)
      counts[(keys[i] ^ sorted[i]) % 8192] += keys[i];
    for (const auto& [key, sum] : counts) mix ^= key * sum;
  }
  const double seconds = since(t0);
  // The results must look used, or the compiler may drop the job.
  if (dot == 0.125 && mix == 1) std::cerr << "calibration sink\n";
  return seconds;
}

/// Per-pass timings of untraced passes, and the calibration time measured
/// before each pass.
struct Timings {
  std::vector<double> setup, wall, cpu, calibration;
};

/// Runs untraced passes until \p seconds elapsed and at least
/// \p min_passes ran.  A pass that throws is one failed operation.
Timings measure(pb::Workload& w, pb::Gate& gate, double seconds,
                int min_passes) {
  Timings t;
  const auto start = Clock::now();
  for (int pass = 0; pass < min_passes || since(start) < seconds; ++pass) {
    try {
      t.calibration.push_back(calibration_seconds());
      // Set-up repeats so its median is taken over warm and cold runs
      // alike; the last repetition's inputs feed the pass.
      for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto t0 = Clock::now();
        w.setup(nullptr);
        t.setup.push_back(since(t0));
      }
      const auto t1 = Clock::now();
      const double c1 = cpu_seconds();
      w.run();
      const double c2 = cpu_seconds();
      t.wall.push_back(since(t1));
      t.cpu.push_back(c2 - c1);
    } catch (const std::exception& e) {
      gate.fail("pass-" + std::to_string(pass), e.what());
      continue;
    }
    w.check(gate);
  }
  return t;
}

/// One timing's distribution over passes: median, the highest percentile
/// with at least ten samples beyond it, extremes, and the sample count.
void print_distribution(const std::string& name,
                        const std::vector<double>& samples) {
  const pb::Summary s = pb::summarize(samples);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  std::cout << "  " << name << " over " << s.n << " samples: min "
            << (s.n > 0 ? sorted.front() : 0.0) << ", p25 "
            << (s.n > 0 ? sorted[(s.n - 1) / 4] : 0.0) << ", p50 " << s.p50;
  if (s.tail_q > 0.5) std::cout << ", p" << 100 * s.tail_q << " " << s.tail;
  std::cout << ", max " << s.max << "\n";
}

/// Reads the written trace back through obs::analysis: the span count
/// must survive the round trip.
std::string trace_file_error(const std::string& path, std::size_t spans) {
  std::ifstream in(path);
  if (!in) return "cannot read back " + path;
  std::size_t read = 0;
  for (const auto& process : hpcs::obs::load_chrome_trace(in))
    read += process.data.spans.size();
  if (read == spans) return {};
  return "trace file holds " + std::to_string(read) + " spans, recorded " +
         std::to_string(spans);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return usage(std::cerr, 2);
  }

  try {
    const int workers = pool_workers();
    auto w = pb::make_workload(opt.workload, opt.seed, workers);
    const std::string pins_path = opt.pins_dir + "/" + opt.workload + ".pins";
    pb::Pins pins = pb::Pins::load(pins_path);
    if (!w->seeded()) pins.seed = opt.seed;
    pb::Gate gate(opt.pin ? pb::Pins{} : pins, opt.seed, w->match());

    // Warm-up pass: fills caches and finishes lazy set-up before timing.
    measure(*w, gate, 0.0, 1);
    if (opt.pin) {
      pb::Pins out{opt.seed, gate.observed()};
      out.save(pins_path);
      std::cout << "pinned " << out.values.size() << " outputs of "
                << opt.workload << " at seed " << opt.seed << " to "
                << pins_path << "\n";
      return gate.failed() == 0 ? 0 : 1;
    }

    pb::Values values;
    const std::vector<pb::MetricDef>* defs = &pb::end_to_end_metrics();
    if (!opt.trace) {
      const Timings t = measure(*w, gate, opt.seconds, 3);
      // Timings are reported at the reference host's speed: a run whose
      // calibration took k times the reference time ran on a host k times
      // slower, and other tenants move it by up to 50% within minutes.
      const double speed =
          kReferenceCalibrationS / pb::median(t.calibration);
      values["wall_s"] = pb::median(t.wall) * speed;
      values["cpu_s"] = pb::median(t.cpu) * speed;
      values["setup_s"] = pb::median(t.setup) * speed;
      values["peak_rss_mb"] = peak_rss_mb();
      std::cout << opt.workload << ": " << t.wall.size()
                << " passes, W = " << workers << " workers, seed "
                << opt.seed << (gate.pinned() ? " (pinned)" : "")
                << "; as measured:\n";
      print_distribution("wall_s", t.wall);
      print_distribution("cpu_s", t.cpu);
      print_distribution("setup_s", t.setup);
      print_distribution("calibration_s", t.calibration);
      std::cout << "host speed " << speed << " of the reference ("
                << kReferenceCalibrationS
                << " s calibration); the metrics below are the medians "
                   "above times that speed\n";
    } else {
      defs = &pb::per_layer_metrics();
      const Timings untraced = measure(*w, gate, opt.seconds / 2, 3);
      pb::Tracer tracer;
      std::vector<double> traced_wall;
      const auto start = Clock::now();
      for (int pass = 0; pass < 2 || since(start) < opt.seconds / 2; ++pass) {
        try {
          const pb::Tracer::Scope scope(&tracer, "run.pass");
          w->setup(&tracer);
          const auto t1 = Clock::now();
          w->run_traced(tracer);
          traced_wall.push_back(since(t1));
        } catch (const std::exception& e) {
          gate.fail("traced-pass-" + std::to_string(pass), e.what());
          continue;
        }
        w->check(gate);
      }
      try {
        const pb::Tracer::Scope scope(&tracer, "run.split");
        w->split(tracer, gate);
      } catch (const std::exception& e) {
        gate.fail("split", e.what());
      }
      const std::vector<pb::Span> spans = tracer.spans();
      pb::timing_values(spans, values);
      w->layer_values(spans, values);
      const double traced = pb::median(traced_wall);
      const double plain = pb::median(untraced.wall);
      values["trace.traced_wall_s"] = traced;
      values["trace.untraced_wall_s"] = plain;
      values["trace.overhead_ratio"] = plain > 0 ? traced / plain - 1 : 0.0;

      std::filesystem::create_directories(opt.out_dir);
      const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                               std::to_string(opt.seed) + ".trace.json";
      {
        std::ofstream out(path);
        tracer.write_chrome_trace(out, opt.workload);
        if (!out) throw std::runtime_error("cannot write " + path);
      }
      gate.check_invariant("trace-file", trace_file_error(path, spans.size()));
      pb::print_layer_table(std::cout, opt.workload, spans, values,
                            w->notes());
      std::cout << "[trace: " << path << ", " << spans.size() << " spans]\n";
    }

    const pb::Outcome outcome{.correct = gate.failed() == 0 &&
                                         gate.attempted() > 0,
                              .attempted = gate.attempted(),
                              .failed = gate.failed()};
    for (const std::string& error : gate.errors())
      std::cout << "FAILED " << error << "\n";
    if (!opt.trace)
      for (const pb::MetricDef& m : *defs)
        std::cout << m.name << " " << values[m.name] << " " << m.unit << "\n";
    std::cout << "fail_ratio "
              << (outcome.attempted > 0
                      ? static_cast<double>(outcome.failed) /
                            static_cast<double>(outcome.attempted)
                      : 0.0)
              << " (" << outcome.failed << " failed / " << outcome.attempted
              << " attempted operations)\n";
    std::cout << pb::result_json(outcome, *defs, values) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
