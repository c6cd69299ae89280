#pragma once

/// \file campaign.hpp
/// \brief The parallel campaign engine: every figure of the paper is a
///        *sweep* — clusters x runtimes x node counts x apps — and this
///        layer executes the whole cartesian product concurrently.
///
/// Guarantees:
///
///  * **Determinism** — each cell derives its seed from the campaign base
///    seed and the cell's *name* (never from execution order), and cells
///    write to disjoint result slots, so the results — and the CSV bytes —
///    are identical for any `jobs` count.  Adding an axis value never
///    perturbs the seeds of existing cells (same philosophy as
///    `sim::Rng::child`).
///  * **Build once** — image builds are memoized across the campaign in a
///    shared, thread-safe cache keyed by (recipe, ISA, build mode, image
///    format); a runtime x scale sweep builds each distinct image once
///    instead of once per point.
///  * **Failure isolation** — one invalid combination (e.g. an ISA
///    mismatch) is recorded as a failed cell with its error message; the
///    campaign always completes.
///
/// Cell expansion order is fixed: clusters (outermost) > variants > apps >
/// node counts > geometries > fault specs > repetitions (innermost).  The
/// fault axis defaults to a single *disabled* spec which contributes no
/// key segment, so fault-free campaigns keep their pre-fault cell names —
/// and therefore their seeds and results — bit-for-bit.

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "fault/spec.hpp"

namespace hpcs::study {

/// Why a campaign cell failed, for the CSV/JSON failure taxonomy.
enum class FailureKind {
  None,                ///< cell succeeded
  Config,              ///< invalid spec/scenario (std::invalid_argument)
  ExecFormat,          ///< ISA mismatch (container::ExecFormatError)
  RuntimeUnavailable,  ///< runtime absent on cluster
  Fault,               ///< injected fault exhausted retries (retryable)
  Internal,            ///< anything else
};

const char* to_string(FailureKind kind) noexcept;

/// Maps an exception thrown by a cell to its failure category.
FailureKind classify_failure(const std::exception& e) noexcept;

/// One runtime-axis entry: the runtime plus the image build technique and,
/// optionally, a foreign ISA (models running an image pulled from a
/// different machine — the Section B.2 portability probe).
struct RuntimeVariant {
  container::RuntimeKind runtime = container::RuntimeKind::BareMetal;
  container::BuildMode mode = container::BuildMode::SystemSpecific;
  /// Build the image for this ISA instead of the target cluster's.
  std::optional<hw::CpuArch> image_arch;
  /// Display name for reports; empty derives "runtime(mode)".
  std::string display;

  std::string name() const;
};

/// MPI x OpenMP geometry of one point; ranks == 0 fills every core with
/// \p threads-wide ranks (the CLI's convention).
struct Geometry {
  int ranks = 0;
  int threads = 1;
};

struct CampaignCell;

/// Cartesian-product builder over the study's axes.
struct CampaignSpec {
  std::string name = "campaign";
  std::vector<hw::ClusterSpec> clusters;
  std::vector<RuntimeVariant> variants;
  std::vector<AppCase> apps;        ///< empty: {ArteryCfd}
  std::vector<int> node_counts;     ///< empty: {4}
  std::vector<Geometry> geometries; ///< empty: {{0, 1}} (fill cores)
  /// Fault-model axis; empty: one disabled spec (no key segment, so the
  /// expansion is identical to a campaign without the axis).
  std::vector<hpcs::fault::FaultSpec> faults;
  int time_steps = 10;
  int repetitions = 1;
  std::uint64_t base_seed = 42;

  CampaignSpec& cluster(hw::ClusterSpec c);
  CampaignSpec& variant(
      container::RuntimeKind rt,
      container::BuildMode mode = container::BuildMode::SystemSpecific,
      std::string display = {}, std::optional<hw::CpuArch> image_arch = {});
  CampaignSpec& app(AppCase a);
  CampaignSpec& nodes(std::vector<int> counts);
  CampaignSpec& geometry(int ranks, int threads);
  CampaignSpec& steps(int s);
  CampaignSpec& reps(int r);
  CampaignSpec& seed(std::uint64_t s);
  CampaignSpec& fault(hpcs::fault::FaultSpec f);

  /// Number of cells the product expands to.
  std::size_t size() const noexcept;

  /// \throws std::invalid_argument for empty clusters/variants or bad
  ///         steps/reps.
  void validate() const;

  /// Expands the product into cells in the fixed axis order.  Scenarios
  /// carry their derived seed but no image yet (images are built — through
  /// the shared cache — when the campaign executes, so a broken image
  /// build fails one cell, not the expansion).
  std::vector<CampaignCell> expand() const;
};

/// One point of the campaign: the scenario, where it sits in the product,
/// and (after execution) its result or error.
struct CampaignCell {
  std::size_t index = 0;  ///< position in expansion order
  std::size_t cluster_index = 0;
  std::size_t variant_index = 0;
  std::size_t app_index = 0;
  std::size_t nodes_index = 0;
  std::size_t geometry_index = 0;
  std::size_t fault_index = 0;
  int repetition = 0;
  /// Stable cell name, e.g. "Lenox/singularity(system-specific)/
  /// artery-cfd/n4/28x4/r0" (enabled fault specs insert their label
  /// before the repetition segment); the seed is derived from it.
  std::string key;
  RuntimeVariant variant;
  Scenario scenario;
  hpcs::fault::FaultSpec fault_spec;  ///< this cell's fault model
  bool ok = false;
  FailureKind failure = FailureKind::None;
  int attempts = 0;   ///< executions performed (> 1 after fault retries)
  /// Pool worker that executed the cell (-1 before execution).  Purely
  /// diagnostic: worker assignment depends on scheduling, so this never
  /// reaches a serialized artifact (CSV/JSON/trace stay jobs-invariant).
  int worker = -1;
  std::string error;  ///< exception message for failed cells
  RunResult result;   ///< valid only when ok
};

/// Thread-safe memoized image builds shared across a campaign.
class ImageBuildCache {
 public:
  /// Returns the image for \p variant on \p cluster, building it at most
  /// once per distinct (ISA, mode, format) key.
  container::Image get(const hw::ClusterSpec& cluster,
                       const RuntimeVariant& variant);

  std::size_t hits() const noexcept;
  std::size_t misses() const noexcept;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, container::Image> cache_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

struct CampaignOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency().
  int jobs = 1;
  RunnerOptions runner{};
  /// Re-executions granted to cells that fail with FailureKind::Fault
  /// (retry budget exhaustion); other categories never retry.  Each retry
  /// derives a fresh seed from the cell key, keeping results
  /// jobs-invariant.
  int cell_retries = 1;

  void validate() const;
};

struct CampaignResult {
  std::string name;
  std::vector<CampaignCell> cells;  ///< always in expansion order
  /// Axis sizes (clusters, variants, apps, nodes, geometries, faults,
  /// reps) after defaulting; `at` indexes the cell grid with them.
  std::array<std::size_t, 7> axes{};
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  std::size_t image_cache_hits = 0;
  std::size_t image_cache_misses = 0;
  int jobs = 1;
  double wall_time_s = 0.0;  ///< host wall clock (not simulated time)
  /// Harness-health registry: TaskPool queue-depth/steal/utilization
  /// gauges and per-cell host-time histograms.  Host-side and
  /// scheduling-dependent by nature, so it is kept apart from
  /// aggregate_metrics() and never serialized into the jobs-invariant
  /// figure artifacts (CSV/JSON/trace/metrics files).
  obs::Metrics host_metrics;

  const CampaignCell& at(std::size_t cluster, std::size_t variant,
                         std::size_t app, std::size_t nodes,
                         std::size_t geometry, std::size_t fault_level = 0,
                         int repetition = 0) const;

  /// One plotted series for a (cluster, variant, app, fault) slice: one
  /// value per swept point (the node axis when it has > 1 entries, else
  /// the geometry axis), averaging \p metric over repetitions.  Failed
  /// cells are skipped.  The series is named after the variant.
  Series series(std::size_t cluster, std::size_t variant, std::size_t app,
                const std::function<double(const RunResult&)>& metric,
                std::size_t fault_level = 0) const;

  /// Per-cell results, one CSV row per cell, byte-identical for any jobs
  /// count (no wall-clock or order-dependent columns).
  void write_csv(std::ostream& out) const;

  /// Machine-readable campaign summary (counts, cache stats, failed
  /// cells, and — when cells carry metrics — the aggregate metrics
  /// registry).  Host wall time stays out, so the bytes are a pure
  /// function of the spec, like the CSV's.
  void write_json(std::ostream& out) const;

  /// Merges every successful cell's metrics in cell-index order (counters
  /// add, gauges keep the max, histograms combine exactly) and adds
  /// campaign-level counters.  Deterministic and jobs-invariant.
  obs::Metrics aggregate_metrics() const;

  /// Merges every successful cell's windowed store in cell-index order
  /// (empty when temporal telemetry was off) — the associative merge
  /// keeps the result `--jobs`-invariant.
  obs::TimeSeries aggregate_timeseries() const;
  /// Time-series CSV: one scope per successful cell in expansion order
  /// plus a final "(aggregate)" scope.  Deterministic bytes.
  void write_timeseries_csv(std::ostream& out) const;

  /// Chrome trace-event JSON for the whole campaign: one trace process
  /// per cell (pid = cell index, named by the cell key) holding a
  /// campaign-level "cell" span over the cell's own run trace; failed
  /// cells appear as a "cell-failed" instant.  Byte-identical for any
  /// jobs count.  Open in chrome://tracing or https://ui.perfetto.dev.
  void write_chrome_trace(std::ostream& out) const;

  /// Per-cell table plus a summary footer.
  void print(std::ostream& out) const;
};

/// Executes a CampaignSpec's cells on a work-stealing pool.
class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignOptions options = {});

  CampaignResult run(const CampaignSpec& spec) const;

 private:
  CampaignOptions options_;
};

}  // namespace hpcs::study
