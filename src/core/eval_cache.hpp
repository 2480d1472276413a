// Persistent (on-disk) evaluation cache for the batch explorer.
//
// A cache directory holds one append-friendly index (`index.txt`) plus one
// entry file per cached evaluation, keyed by the pair
// (trace fingerprint, options fingerprint).  Each entry file serializes the
// full `DesignPoint` vector and Pareto front produced by explore_generators
// for that key, with doubles stored as exact IEEE-754 bit patterns so a
// cache round trip reproduces reports byte-for-byte.
//
// Robustness contract (see docs/cache-format.md for the format spec):
//  * Writes are atomic: entry files are written to a temp name and renamed;
//    index lines are appended in a single write.  Readers never observe a
//    half-written entry.
//  * Corruption tolerance: a malformed index line, a truncated or
//    bit-flipped entry file, a payload replaced by a non-file (directory,
//    FIFO), or an index/entry version mismatch degrades to a cache miss —
//    load never throws for bad cache content and store never corrupts
//    existing entries.
//  * Concurrent access: multiple processes may load from and store into the
//    same directory concurrently.  Duplicate index lines are deduplicated on
//    load (entries for a key are immutable, so every writer stores the same
//    payload).  The maintenance operations (compact, prune, merge) are the
//    exception: they rewrite the index and delete files, so they assume no
//    concurrent writer.
//
// Determinism contract: load_all returns entries sorted by key, entry
// serialization is canonical, and compact/prune/merge all reduce a directory
// to one canonical form (sorted index, combined metadata, exactly one file
// per surviving entry), so compacting merged shard caches and merging
// compacted shard caches produce byte-identical directories.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/explorer.hpp"

namespace addm::core {

/// Identifies one cached evaluation: the trace fingerprint (geometry +
/// address sequence, names excluded) and the options fingerprint (every
/// ExploreOptions field, technology library included).
struct EvalCacheKey {
  std::uint64_t trace_hash = 0;
  std::uint64_t options_hash = 0;
  bool operator==(const EvalCacheKey&) const = default;
};

/// One cached evaluation: the design points explore_generators produced for
/// the key, in candidate order, plus the Pareto-front indices.
struct EvalCacheEntry {
  EvalCacheKey key;
  std::vector<DesignPoint> points;
  std::vector<std::size_t> pareto;
};

/// Per-entry access metadata carried by v2 index records.  Every field is
/// input-determined — no timestamps — so eviction decisions derived from it
/// are a pure function of cache contents.
struct EvalCacheMeta {
  /// Insertion generation: all entries flushed by one store_batch share
  /// 1 + the highest generation already in the index.  0 = unknown (legacy
  /// v1 record or adopted orphan), which prune treats as oldest.
  std::uint64_t generation = 0;
  /// Accumulated warm-start hits recorded by record_hits (sum of every
  /// `hit` record plus the hits field of every `entry` record for the key).
  std::uint64_t hits = 0;
  /// Payload (.entry file) size in bytes as recorded at store/compact time;
  /// 0 = unknown (legacy v1 record).
  std::uint64_t bytes = 0;
};

/// One combined per-key index record (duplicate lines already folded:
/// hits summed, generation min'd over non-zero values, bytes max'd).
struct EvalCacheRecord {
  EvalCacheKey key;
  EvalCacheMeta meta;
};

/// Counters reported by load operations.  `skipped` covers everything the
/// robustness contract tolerates: malformed index lines, missing, truncated,
/// corrupt, or version-mismatched entry files.
struct EvalCacheLoadStats {
  std::size_t loaded = 0;
  std::size_t skipped = 0;
};

/// On-disk index format version.  Version 2 added per-entry access metadata
/// (`entry` records grew generation/hits/bytes fields and `hit` records were
/// introduced); readers still accept version-1 indexes with default
/// metadata, and writers append records in the index's own version.  Any
/// *newer* version is treated as an empty cache by readers and refused by
/// writers and maintenance.
inline constexpr int kEvalCacheFormatVersion = 2;

/// On-disk entry-file format version.  Unchanged by the v2 index bump:
/// entry payloads written by v1 remain byte-valid, which is what lets old
/// caches warm-start new binaries.  Bump only when the entry grammar below
/// changes.
inline constexpr int kEvalCacheEntryVersion = 1;

/// Canonical text serialization of one entry (versioned, checksummed).
/// Byte-stable for equal entries; the exact grammar is docs/cache-format.md.
std::string serialize_eval_entry(const EvalCacheEntry& entry);

/// Parses `serialize_eval_entry` output.  Returns false — never throws — on
/// any malformation: wrong version, syntax error, checksum mismatch, or a
/// truncated payload.
bool parse_eval_entry(const std::string& text, EvalCacheEntry& out);

/// Handle to one cache directory.  The handle itself holds no state beyond
/// the path: every operation re-reads the directory, so handles are cheap
/// and safe to use from multiple threads as long as each call site tolerates
/// concurrent writers (the format guarantees they can).
class EvalCacheDir {
 public:
  /// Binds the handle to `dir`.  The directory is created lazily on the
  /// first store(), so constructing a handle for a read-only or missing
  /// path is valid (loads simply return nothing).
  explicit EvalCacheDir(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Loads every valid entry listed in the index, sorted by key.  Invalid
  /// content is counted in `stats->skipped` and otherwise ignored.
  std::vector<EvalCacheEntry> load_all(EvalCacheLoadStats* stats = nullptr) const;

  /// Probes one key directly (the entry filename is derived from it), so
  /// readers that already know their keys pay O(1) per lookup instead of
  /// scanning the index.  Returns false — a plain miss — when the entry is
  /// absent, damaged, replaced by a non-file, or version-mismatched.
  bool load_entry(const EvalCacheKey& key, EvalCacheEntry& out) const;

  /// Combined per-key index records, sorted by key.  Pure index scan: the
  /// payload files are not opened, so recorded metadata may describe dead
  /// entries.  `index_damage` (optional) counts tolerated malformed lines.
  std::vector<EvalCacheRecord> read_records(std::size_t* index_damage = nullptr) const;

  /// Atomically writes the entry file (temp + rename), then appends one
  /// index line.  Returns false on I/O failure; the cache is best-effort,
  /// so callers may ignore the result.  Storing a key twice is harmless.
  bool store(const EvalCacheEntry& entry);

  /// Stores a batch of entries under ONE insertion generation (1 + the
  /// highest generation already indexed), writing payloads atomically and
  /// appending all index lines in a single write, in key order.  Returns
  /// the number of entries indexed (0 when the index append fails or the
  /// directory carries a foreign-version index).
  std::size_t store_batch(const std::vector<EvalCacheEntry>& entries);

  /// Appends `hit` records crediting warm-start hits to existing entries
  /// (keys without an index record are silently dropped — a hit on an
  /// entry pruned by a concurrent maintenance pass must not resurrect it).
  /// Version-2 indexes only; returns false when nothing could be recorded.
  bool record_hits(const std::vector<std::pair<EvalCacheKey, std::uint64_t>>& hits);

  /// Result of the maintenance operations below.
  struct MaintenanceStats {
    std::size_t kept = 0;          ///< entries in the canonical result
    std::size_t dropped = 0;       ///< index keys without any valid payload
    std::size_t adopted = 0;       ///< valid orphan payloads re-indexed
    std::size_t evicted = 0;       ///< valid entries removed by the budget
    std::size_t files_removed = 0; ///< unreferenced/stale files deleted
    std::uint64_t bytes_kept = 0;  ///< total payload bytes of kept entries
    bool ok = true;                ///< false on refusal or index-write failure
  };

  /// Rewrites the directory into canonical form: drops dead and corrupt
  /// index keys, folds duplicate records (hits summed, generation min'd),
  /// re-indexes valid orphan payload files, rewrites payloads whose bytes
  /// are not canonical, atomically replaces the index (sorted by key), and
  /// deletes every file the new index does not reference (corrupt payloads,
  /// stale temp files).  Idempotent byte-for-byte; upgrades v1 indexes to
  /// the current version.  Refuses (ok=false, directory untouched) when the
  /// index carries a future version.  Assumes no concurrent writer.
  MaintenanceStats compact();

  /// compact() plus budget enforcement: evicts entries in deterministic
  /// priority order — ascending (hits, generation, key), i.e. least-hit
  /// first, then oldest generation, then smallest key — until at most
  /// `max_entries` remain and their payload bytes total at most
  /// `max_bytes`.  UINT64_MAX = unlimited.  Assumes no concurrent writer.
  MaintenanceStats prune(std::uint64_t max_entries, std::uint64_t max_bytes);

  /// Cheap directory statistics: one index scan plus one directory listing,
  /// no checksum validation (that is verify()).  Every field is a pure
  /// function of the directory contents.
  struct DirStats {
    int index_version = 0;               ///< 0 = missing or unreadable header
    std::size_t entries = 0;             ///< unique indexed keys
    std::size_t payload_files = 0;       ///< key-named .entry files present
    std::size_t missing_payloads = 0;    ///< indexed keys without a file
    std::size_t orphan_payloads = 0;     ///< key-named files not indexed
    std::size_t stale_files = 0;         ///< any other file (temps, junk)
    std::size_t index_damage = 0;        ///< malformed index lines skipped
    std::uint64_t recorded_bytes = 0;    ///< sum of recorded entry sizes
    std::uint64_t payload_bytes = 0;     ///< sum of actual file sizes
    std::uint64_t hits = 0;              ///< total recorded hits
    std::uint64_t max_generation = 0;    ///< newest insertion generation
  };
  DirStats stats() const;

  /// Full checksum validation of every indexed payload plus an orphan scan.
  /// Never throws and never modifies the directory; `clean()` is the
  /// "nothing for compact to do" predicate.
  struct VerifyStats {
    std::size_t valid = 0;            ///< indexed entries that parse + match
    std::size_t missing = 0;          ///< indexed keys without a payload file
    std::size_t corrupt = 0;          ///< payloads failing parse or key match
    std::size_t orphans = 0;          ///< valid payloads missing an index record
    std::size_t orphan_corrupt = 0;   ///< unindexed payloads that do not parse
    std::size_t stale_files = 0;      ///< temp/non-entry files present
    std::size_t index_damage = 0;     ///< malformed index lines skipped
    bool clean() const {
      return missing == 0 && corrupt == 0 && orphans == 0 &&
             orphan_corrupt == 0 && stale_files == 0 && index_damage == 0;
    }
  };
  VerifyStats verify() const;

  /// Result of merge(): `copied` entries were written into the destination,
  /// `failed` could not be (destination I/O errors — unwritable directory,
  /// full disk).  Invalid *source* entries are neither: they are ordinary
  /// skipped damage, exactly as a load would treat them.
  struct MergeStats {
    std::size_t copied = 0;
    std::size_t failed = 0;
  };

  /// Merges every valid entry of `src` into `dst` and canonicalizes the
  /// result (same rewrite as compact(), so merge output is already
  /// compacted).  Metadata for keys present on both sides combines
  /// commutatively — hits sum, generations take the minimum — which makes
  /// the merged directory a pure function of the source *set*: merging in
  /// any order, or compacting before instead of after, yields byte-identical
  /// directories.  Assumes no concurrent writer on `dst`.
  static MergeStats merge(const std::string& dst, const std::string& src);

 private:
  std::string dir_;
};

/// Fixed-order JSON rendering of DirStats — the exact bytes emitted by
/// `addm_cache stats --json` and embedded in the serve daemon's
/// `admin stats` reply (golden-checked against
/// tests/golden/cache_stats_empty.json).  Field order and formatting are
/// part of the format.
std::string eval_cache_stats_json(const EvalCacheDir::DirStats& s);

}  // namespace addm::core
