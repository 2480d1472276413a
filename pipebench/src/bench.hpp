// Shared pieces of the pipeline benchmark: timing and sample statistics,
// the metric/failure accounting every workload fills in, the in-memory span
// recorder of the traced run, seeded input generation, and the workload
// entry points.  Nothing here touches the library's internals: every call
// into the program goes through the same public headers the CLIs use.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/batch_explorer.hpp"
#include "seq/trace.hpp"

namespace pipebench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Order statistics over timing samples.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// 99th percentile when at least ten samples lie beyond it; with fewer
/// samples, the highest percentile that still has ten beyond it, but never
/// below the median.
double tail_quantile(std::vector<double> v);

/// FNV-1a of a byte string (report bodies are compared by hash).
std::uint64_t hash_bytes(const std::string& s);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path work_dir;  ///< scratch inputs, caches and sockets (removed after)
  fs::path out_dir;   ///< span files of traced runs
};

/// What one run reports: metrics in insertion order plus failure accounting.
/// `fail` records one failed operation with a reason (the first few reasons
/// are printed to stderr).
struct Outcome {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& why) {
    ++failed;
    if (reasons.size() < 20) reasons.push_back(why);
  }
  /// One attempted operation that passes iff `ok`.
  void check(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) fail(why);
  }
};

// ---------------------------------------------------------------------------
// Spans of the traced run (Dapper-style: name, start, end, parent span and
// request id), kept in memory and written when the run ends.

struct Span {
  std::string name;
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t request = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  int open(std::string name, std::string layer, std::uint64_t request);
  void close(int id);

  /// Sum of durations of every span called `name`, in seconds.
  double total_s(const std::string& name) const;
  /// Durations of every span called `name`, in seconds.
  std::vector<double> durations_s(const std::string& name) const;
  /// Self time (duration minus the time its children cover) per layer.
  std::map<std::string, double> self_s_by_layer() const;
  /// Share of span `root`'s duration spent inside spans of program layers
  /// (every layer but "bench", the benchmark's own glue).
  double coverage(int root) const;

  /// Writes `<stem>.spans.json` (spans plus self times) and
  /// `<stem>.trace.json` (Chrome Trace Event format) into `dir`.
  void write(const fs::path& dir, const std::string& stem,
             const std::string& host_json) const;

 private:
  std::int64_t now_ns() const;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span on one tracer.
class Scope {
 public:
  Scope(Tracer& t, std::string name, std::string layer, std::uint64_t request = 0)
      : t_(t), id_(t.open(std::move(name), std::move(layer), request)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ---------------------------------------------------------------------------
// Seeded inputs.  The seed picks family parameters and subsets; trace
// counts, lengths and geometries are fixed per workload.

/// Small deterministic generator (splitmix64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t s_;
};

/// seq::workloads families.  The seed draws each family's parameters (DCT
/// block, block and macroblock sizes); families without parameters give the
/// same trace for every seed.
enum class Family { kTranspose, kDct, kBlock, kZigzag, kIncremental };

/// One trace of length g.size() from `family` with seeded parameters.  kBlock
/// is a block raster or, equivalently shaped, a motion-estimation read.
addm::seq::AddressTrace family_trace(addm::seq::ArrayGeometry g, Family family, Rng& rng);

/// One trace slot per geometry: the seed picks one of `families` and its
/// parameters; a doubled slot repeats every address twice.
struct Slot {
  std::vector<Family> families;
  bool doubled = false;
};

/// One trace per (geometry, slot), distinct by fingerprint, named after the
/// family, geometry and slot.  Counts, lengths and geometries do not depend
/// on the seed; the family per slot is fixed wherever its cost class would
/// otherwise make the work per run seed-dependent.
std::vector<addm::seq::AddressTrace> seeded_suite(
    const std::vector<addm::seq::ArrayGeometry>& geoms, const std::vector<Slot>& slots,
    std::uint64_t seed);

/// A novel random 8x8 trace of 64 accesses (distinct per `index`).
addm::seq::AddressTrace novel_trace(std::uint64_t seed, std::uint64_t index);

/// Writes each trace to `dir/<name>.trace`; returns the paths in order.
std::vector<std::string> write_traces(const fs::path& dir,
                                      const std::vector<addm::seq::AddressTrace>& traces);

// ---------------------------------------------------------------------------
// Checks shared by the workloads.

/// Per-entry output checks: no exploration error; with `verify`, every Pareto
/// note carries a "[verified" verdict; with a non-empty `periodic_tag`, every
/// note carries it.  Returns the first problem, or "" when the entry is fine.
std::string entry_problem(const addm::core::BatchEntry& e, bool verify,
                          const std::string& periodic_tag);

/// The default-options fingerprint pin (80f73374c170bfac).
void check_fingerprint_pin(Outcome& out);

// ---------------------------------------------------------------------------
// The traced pipeline: drives every stage one public call at a time over a
// workload's trace files and records a span around each call.

struct TracedInputs {
  std::vector<std::string> files;               ///< trace files, in order
  addm::core::ExploreOptions explore;           ///< the workload's options
  std::vector<std::string> periodic_tags;       ///< expected tag per file, or ""
  std::size_t batch_repeats = 20;               ///< all-hit BatchExplorer runs
  std::size_t serve_requests = 40;              ///< served requests
  std::size_t serve_subset = 4;                 ///< files per served request
  std::size_t threads = 2;                      ///< service/batch thread budget
};

/// Runs the traced pipeline and fills every per-layer metric into `out`.
void run_traced(const RunConfig& cfg, const TracedInputs& in, Outcome& out,
                const std::string& host_json);

// ---------------------------------------------------------------------------
// Workloads.  Each fills the end-to-end metrics (untraced) or, with
// cfg.trace, the per-layer metrics.

void suite_cold(const RunConfig& cfg, Outcome& out, const std::string& host_json);
void stream_periodic(const RunConfig& cfg, Outcome& out, const std::string& host_json);
void serve_warm(const RunConfig& cfg, Outcome& out, const std::string& host_json);

/// The end-to-end metric set shared by every workload: one "operation" is a
/// cold batch (suite_cold), a four-file iteration (stream_periodic) or a
/// request (serve_warm).
struct EndToEnd {
  double setup_s = 0;
  std::vector<double> op_seconds;  ///< per-operation wall times
  double window_s = 0;             ///< measured wall time
  double traces_per_op = 0;        ///< traces delivered per operation
  double accesses_per_op = 0;      ///< accesses delivered per operation
  /// Throughput from the median operation (true) or from completions over
  /// the window (false: closed-loop servers, where operations overlap).
  bool rate_from_median = true;
  /// Peak RSS taken when the window closes, before the output checks.
  double peak_rss_mb = 0;
};
void report_end_to_end(const EndToEnd& e, Outcome& out);

}  // namespace pipebench
