// Batch design-space exploration: run explore_generators over a whole suite
// of address traces concurrently, aggregate per-trace Pareto fronts, and
// memoize repeated (trace, options) evaluations — in memory within one
// process, and optionally on disk across processes (core/eval_cache).
//
// Determinism contract: for a fixed input trace list and options, the
// BatchResult entries — and therefore batch_report_csv / batch_report_json —
// are byte-identical regardless of thread count, scheduling, or cache
// state (cold, memo-warm, or disk-warm); cache directories written by
// flush_disk() are likewise byte-identical (entries are canonical and the
// index is written in cache-key order).  Entries are ordered by input position;
// nothing schedule- or cache-dependent (timings, worker ids, hit counts)
// enters the serialized reports.  Cache statistics live only in
// BatchResult fields: they are deterministic for a fixed input and cache
// state, but a warm disk cache turns evaluations into disk_hits, so they
// are *not* part of any report.  This is what makes sharded runs mergeable byte-for-byte
// (see tools/addm_merge and docs/cache-format.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/eval_cache.hpp"
#include "core/explorer.hpp"
#include "seq/trace.hpp"

namespace addm::core {

/// Configuration for one BatchExplorer.  Value type; copying is cheap
/// relative to an exploration.
struct BatchOptions {
  /// Per-trace exploration knobs.
  ExploreOptions explore;
  /// Worker threads, one trace per task (each trace's candidates run
  /// serially); 0 means std::thread::hardware_concurrency().  run() never
  /// starts more workers than it has traces, and with one worker it runs
  /// on the calling thread without a pool.
  std::size_t threads = 0;
  /// Reuse results across identical (trace, options) pairs, including across
  /// successive run() calls on the same BatchExplorer.
  bool memoize = true;
  /// When non-empty, the directory of a persistent evaluation cache
  /// (core/eval_cache).  Each run() probes the store for exactly the input
  /// traces' (trace, options) keys — O(inputs), not O(cache size) — and
  /// queues newly computed results for flush_disk().  Multiple concurrent
  /// processes may share one directory.  Requires `memoize`; ignored when
  /// memoization is disabled.
  std::string cache_dir;
  /// When non-zero, an on-disk size budget (total payload bytes) enforced
  /// by every flush_disk() that writes anything, by pruning the cache
  /// directory in the deterministic eviction order of EvalCacheDir::prune,
  /// so a bounded directory stays bounded across runs.  Lifecycle-only: it
  /// never affects results and is not fingerprinted.  Requires `cache_dir`.
  std::uint64_t cache_budget_bytes = 0;
};

/// Per-trace exploration outcome, in input order.  Plain value type: every
/// field is a pure function of the input trace and ExploreOptions.
struct BatchEntry {
  std::string name;             ///< trace name (or "trace<N>" when unnamed)
  seq::ArrayGeometry geometry;
  std::size_t trace_length = 0;
  std::uint64_t trace_hash = 0;  ///< trace_fingerprint of the input
  std::vector<DesignPoint> points;
  std::vector<std::size_t> pareto;  ///< indices into `points`
  std::string error;  ///< non-empty iff exploration threw for this trace
};

/// Result of one run().  `entries` (and reports built from them) depend only
/// on the inputs; the counters additionally depend on cache state and are
/// therefore reported out-of-band (stderr in the CLI), never serialized.
struct BatchResult {
  std::vector<BatchEntry> entries;  ///< one per input trace, input order
  std::size_t traces = 0;
  std::size_t evaluations = 0;  ///< explorations actually executed
  std::size_t cache_hits = 0;   ///< traces served from the in-memory memo table
  std::size_t disk_hits = 0;    ///< traces served from entries loaded off disk
  std::size_t disk_entries_loaded = 0;  ///< options-matching entries warm-started
  double wall_seconds = 0.0;    ///< not part of any serialized report
};

/// Concurrent, memoizing driver around explore_generators.  One instance
/// owns one in-memory memo table (and, when configured, one handle to a
/// persistent cache directory).
///
/// Cache lifecycle: run() only reads the cache directory.  It queues its
/// newly computed successes and warm-start hit counts in memory, and
/// flush_disk() — the one write path — persists the queue.  prune_disk()
/// runs maintenance behind the same lock, so an instance is the only
/// writer of its directory in its process and never writes it
/// concurrently with itself, which is the eval-cache rule "compact/prune
/// assume no concurrent writer".  A one-shot caller runs then flushes; a
/// long-lived one (the serve daemon) flushes on its own policy.
class BatchExplorer {
 public:
  explicit BatchExplorer(BatchOptions opt = {});
  ~BatchExplorer();
  BatchExplorer(const BatchExplorer&) = delete;
  BatchExplorer& operator=(const BatchExplorer&) = delete;

  const BatchOptions& options() const { return opt_; }

  /// Explores every trace with `options().explore`.  With a cache_dir
  /// configured, every run() probes the store for the input keys it does
  /// not already hold in memory and queues newly computed successes (errors
  /// are never cached) and warm-start hit counts for flush_disk(); it never
  /// writes the directory.  Disk damage degrades to cache misses, never
  /// failures.
  ///
  /// Concurrency: run() may be called from several threads at once, and
  /// concurrently with flush_disk() and prune_disk() — the memo table is
  /// shared (two racing identical traces evaluate once).  Each concurrent
  /// run() uses its own workers against the full `threads` budget, so
  /// the caller owns not oversubscribing across simultaneous runs (the
  /// serve daemon bounds this with its request-thread count).
  BatchResult run(const std::vector<seq::AddressTrace>& traces);

  /// run() with per-call exploration options — the serve daemon's path,
  /// where every request carries its own ExploreOptions but all requests
  /// share one memo table.  Results for different option sets coexist in
  /// the memo keyed by (trace, options) fingerprints, exactly like the
  /// persistent cache.
  BatchResult run(const std::vector<seq::AddressTrace>& traces,
                  const ExploreOptions& explore);

  /// Outcome of one flush_disk() call.
  struct FlushStats {
    std::size_t stored = 0;   ///< pending entries persisted this call
    std::size_t evicted = 0;  ///< entries pruned by cache_budget_bytes
  };

  /// The one write path to cache_dir: stores the queued entries, credits
  /// the queued warm-start hits, and — when cache_budget_bytes is set and
  /// anything was written — prunes the directory back under budget.  The
  /// store writes its batch in cache-key order under one insertion
  /// generation, so the directory bytes do not depend on thread count or
  /// scheduling.  Serialized against itself and prune_disk(); safe to call
  /// concurrently with run().  I/O errors only cost entries.  A no-op
  /// without a cache_dir or queued work.
  FlushStats flush_disk();

  /// Entries queued by run() and not yet persisted by flush_disk().
  std::size_t pending_flush() const;

  /// Cache maintenance behind the writer lock: flushes the queue, then
  /// runs EvalCacheDir::prune(max_entries, max_bytes) on cache_dir, so
  /// queued entries are persisted before the rewrite and no flush runs
  /// during it.  UINT64_MAX for both limits is EvalCacheDir::compact().
  /// Without a cache_dir it does nothing and reports ok=false.
  EvalCacheDir::MaintenanceStats prune_disk(std::uint64_t max_entries,
                                            std::uint64_t max_bytes);

  /// Number of keys in the in-memory memo table (disk-loaded included).
  std::size_t cache_size() const;
  /// Drops the in-memory memo table.  The persistent cache directory is
  /// untouched; the next run() warm-starts from it again.  Not safe
  /// concurrently with run().
  void clear_cache();

 private:
  struct Impl;
  BatchOptions opt_;
  Impl* impl_;
};

/// CSV report: header + one row per (trace, design point). Fixed numeric
/// formatting; fields containing separators are quoted. Byte-identical for
/// identical BatchResult entries, independent of threads and cache state.
std::string batch_report_csv(const BatchResult& result);

/// JSON report mirroring the CSV plus a summary object. Deterministic field
/// order and formatting; contains only input-determined data (no cache or
/// evaluation counters), so shard reports merge byte-stably.
std::string batch_report_json(const BatchResult& result);

}  // namespace addm::core
