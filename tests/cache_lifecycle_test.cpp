// Lifecycle property tests for cache maintenance: prune determinism under
// insertion-order permutation, compact idempotence, exact budget
// enforcement, merge commutativity and its equivalence with compaction,
// hit-weighted eviction priority, version negotiation (v1 reads, future
// refusals), the pruned-then-warm-started run reproducing a cold run's
// report byte-for-byte, and BatchExplorer's one write path (run() only
// reads; flush_disk() and prune_disk() write).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_explorer.hpp"
#include "core/eval_cache.hpp"
#include "core/fingerprint.hpp"
#include "seq/workloads.hpp"

namespace addm::core {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "addm_cache_lifecycle" / name;
  fs::remove_all(dir);
  fs::create_directories(dir.parent_path());
  return dir.string();
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// One offline invocation, as addm_explore makes it: run() queues, then
// flush_disk() writes the cache directory.
BatchResult run_and_flush(const BatchOptions& opt,
                          const std::vector<seq::AddressTrace>& traces,
                          BatchExplorer::FlushStats* flushed = nullptr) {
  BatchExplorer explorer(opt);
  BatchResult result = explorer.run(traces);
  const BatchExplorer::FlushStats stats = explorer.flush_disk();
  if (flushed) *flushed = stats;
  return result;
}

std::map<std::string, std::string> dir_bytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& f : fs::directory_iterator(dir))
    if (f.is_regular_file()) files[f.path().filename().string()] = slurp(f.path());
  return files;
}

EvalCacheEntry entry_for(std::uint64_t trace_hash, std::uint64_t options_hash,
                         std::size_t note_pad = 0) {
  EvalCacheEntry e;
  e.key = {trace_hash, options_hash};
  DesignPoint p;
  p.architecture = "SRAG";
  p.feasible = true;
  p.metrics.area_units = static_cast<double>(trace_hash % 977);
  p.metrics.delay_ns = 1.5;
  p.metrics.cells = 10;
  p.note = std::string(note_pad, 'n');
  e.points = {p};
  e.pareto = {0};
  return e;
}

TEST(CacheLifecycle, PruneDeterministicUnderInsertionOrderPermutation) {
  // Same entry multiset, three different store orders and batch splits →
  // after prune the directories must be byte-identical.  Single-batch
  // stores share one generation; to keep the multisets equal across
  // permutations every permutation stores one batch.
  std::vector<EvalCacheEntry> entries;
  for (std::uint64_t i = 0; i < 9; ++i) entries.push_back(entry_for(100 + i, 7, i));

  auto build_pruned = [&](const std::string& name,
                          const std::vector<std::size_t>& order) {
    const std::string dir = fresh_dir(name);
    EvalCacheDir cache(dir);
    std::vector<EvalCacheEntry> batch;
    for (std::size_t i : order) batch.push_back(entries[i]);
    EXPECT_EQ(cache.store_batch(batch), batch.size());
    EXPECT_TRUE(cache.prune(4, UINT64_MAX).ok);
    return dir_bytes(dir);
  };

  std::vector<std::size_t> order(entries.size());
  std::iota(order.begin(), order.end(), 0);
  const auto reference = build_pruned("perm_ref", order);
  EXPECT_EQ(reference.size(), 5u);  // index + 4 survivors

  std::reverse(order.begin(), order.end());
  EXPECT_EQ(build_pruned("perm_rev", order), reference);
  std::rotate(order.begin(), order.begin() + 3, order.end());
  EXPECT_EQ(build_pruned("perm_rot", order), reference);
}

TEST(CacheLifecycle, CompactIsIdempotentByteForByte) {
  const std::string dir = fresh_dir("idempotent");
  EvalCacheDir cache(dir);
  std::vector<EvalCacheEntry> batch;
  for (std::uint64_t i = 0; i < 6; ++i) batch.push_back(entry_for(i, 1, i * 3));
  ASSERT_EQ(cache.store_batch(batch), batch.size());
  // Duplicate index records and an orphan payload give compact real work.
  ASSERT_TRUE(cache.store(entry_for(2, 1, 6)));
  {
    const EvalCacheEntry orphan = entry_for(0x999, 1);
    std::ofstream(fs::path(dir) / (hex64(orphan.key.trace_hash) + "-" +
                                   hex64(orphan.key.options_hash) + ".entry"),
                  std::ios::binary)
        << serialize_eval_entry(orphan);
  }

  ASSERT_TRUE(cache.compact().ok);
  const auto once = dir_bytes(dir);
  const auto m = cache.compact();
  EXPECT_TRUE(m.ok);
  EXPECT_EQ(m.kept, 7u);  // 6 stored + 1 adopted orphan
  EXPECT_EQ(m.dropped, 0u);
  EXPECT_EQ(dir_bytes(dir), once);
  ASSERT_TRUE(cache.compact().ok);
  EXPECT_EQ(dir_bytes(dir), once);
}

TEST(CacheLifecycle, PruneBudgetIsExact) {
  // Entry-count budget keeps exactly the top-k, and a byte budget is
  // honored exactly: the surviving payload bytes never exceed it, and no
  // evictable entry that would still fit under the priority order survives.
  const std::string dir = fresh_dir("budget");
  EvalCacheDir cache(dir);
  std::vector<EvalCacheEntry> batch;
  for (std::uint64_t i = 0; i < 8; ++i) batch.push_back(entry_for(i, 2, 10 * i));
  ASSERT_EQ(cache.store_batch(batch), batch.size());

  std::uint64_t total = 0;
  std::vector<std::uint64_t> sizes;  // key order == eviction order here
  for (const auto& r : cache.read_records()) {
    sizes.push_back(r.meta.bytes);
    total += r.meta.bytes;
  }
  ASSERT_EQ(sizes.size(), 8u);

  // Same hits (0) and generation (1) everywhere → eviction order is key
  // order, so a budget that cuts the first three leaves exactly five.
  const std::uint64_t budget = total - sizes[0] - sizes[1] - sizes[2];
  const auto m = cache.prune(UINT64_MAX, budget);
  EXPECT_TRUE(m.ok);
  EXPECT_EQ(m.evicted, 3u);
  EXPECT_EQ(m.kept, 5u);
  EXPECT_LE(m.bytes_kept, budget);

  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 5u);
  EXPECT_EQ(s.payload_bytes, m.bytes_kept);
  EXPECT_EQ(s.recorded_bytes, m.bytes_kept);
}

TEST(CacheLifecycle, HitsProtectEntriesFromEviction) {
  const std::string dir = fresh_dir("hits");
  EvalCacheDir cache(dir);
  std::vector<EvalCacheEntry> batch;
  for (std::uint64_t i = 0; i < 6; ++i) batch.push_back(entry_for(i, 3));
  ASSERT_EQ(cache.store_batch(batch), batch.size());

  // Credit hits to the two keys eviction-by-key-order would drop first.
  ASSERT_TRUE(cache.record_hits({{{0, 3}, 5}, {{1, 3}, 2}}));
  // Hits on unknown keys are dropped, not resurrected.
  ASSERT_TRUE(cache.record_hits({{{0xdead, 3}, 9}}));

  ASSERT_TRUE(cache.prune(3, UINT64_MAX).ok);
  std::vector<std::uint64_t> kept;
  for (const auto& r : cache.read_records()) kept.push_back(r.key.trace_hash);
  // Survivors: the two hit keys plus the highest-key cold entry (cold keys
  // 2..5 evict in ascending key order until 3 remain).
  EXPECT_EQ(kept, (std::vector<std::uint64_t>{0, 1, 5}));
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 7u);  // folded into the rewritten entry records
}

TEST(CacheLifecycle, MergeCommutesAndEqualsCompaction) {
  // Build two shard caches with one overlapping key, then check the
  // tentpole contract: merge(A→X, B→X) == merge(B→Y, A→Y) byte-for-byte,
  // and compact-each-then-merge == merge-then-compact.
  auto build_shard = [&](const std::string& name, std::uint64_t lo,
                         std::uint64_t hi) {
    const std::string dir = fresh_dir(name);
    EvalCacheDir cache(dir);
    std::vector<EvalCacheEntry> batch;
    for (std::uint64_t i = lo; i < hi; ++i) batch.push_back(entry_for(i, 4, i));
    EXPECT_EQ(cache.store_batch(batch), batch.size());
    return dir;
  };
  const std::string a = build_shard("shard_a", 0, 5);
  const std::string b = build_shard("shard_b", 4, 9);  // key 4 overlaps

  const std::string ab = fresh_dir("merge_ab");
  EXPECT_EQ(EvalCacheDir::merge(ab, a).failed, 0u);
  EXPECT_EQ(EvalCacheDir::merge(ab, b).failed, 0u);
  const std::string ba = fresh_dir("merge_ba");
  EXPECT_EQ(EvalCacheDir::merge(ba, b).failed, 0u);
  EXPECT_EQ(EvalCacheDir::merge(ba, a).failed, 0u);
  EXPECT_EQ(dir_bytes(ab), dir_bytes(ba));
  EXPECT_EQ(EvalCacheDir(ab).load_all().size(), 9u);

  // compact(merged) is a no-op (merge canonicalizes)...
  const auto merged = dir_bytes(ab);
  ASSERT_TRUE(EvalCacheDir(ab).compact().ok);
  EXPECT_EQ(dir_bytes(ab), merged);

  // ...and merging pre-compacted shards yields the same bytes.
  ASSERT_TRUE(EvalCacheDir(a).compact().ok);
  ASSERT_TRUE(EvalCacheDir(b).compact().ok);
  const std::string cc = fresh_dir("merge_compacted");
  EXPECT_EQ(EvalCacheDir::merge(cc, a).failed, 0u);
  EXPECT_EQ(EvalCacheDir::merge(cc, b).failed, 0u);
  EXPECT_EQ(dir_bytes(cc), merged);
}

TEST(CacheLifecycle, V1IndexReadsAndCompactUpgrades) {
  // A v1-era directory: 3-token entry records under a version-1 header.
  // It must load fine as-is, store_batch must keep appending v1 records
  // (old readers stay compatible), and compact must upgrade to v2.
  const std::string dir = fresh_dir("v1_upgrade");
  fs::create_directories(dir);
  const EvalCacheEntry a = entry_for(0xa, 5);
  const EvalCacheEntry b = entry_for(0xb, 5);
  auto name = [](const EvalCacheEntry& e) {
    return hex64(e.key.trace_hash) + "-" + hex64(e.key.options_hash) + ".entry";
  };
  std::ofstream(fs::path(dir) / name(a), std::ios::binary) << serialize_eval_entry(a);
  std::ofstream(fs::path(dir) / name(b), std::ios::binary) << serialize_eval_entry(b);
  {
    std::ofstream index(fs::path(dir) / "index.txt");
    index << "addm-eval-cache 1\n";
    index << "entry " << hex64(a.key.trace_hash) << " " << hex64(a.key.options_hash)
          << "\n";
    index << "entry " << hex64(b.key.trace_hash) << " " << hex64(b.key.options_hash)
          << "\n";
  }

  EvalCacheDir cache(dir);
  EvalCacheLoadStats stats;
  EXPECT_EQ(cache.load_all(&stats).size(), 2u);
  EXPECT_EQ(stats.skipped, 0u);

  ASSERT_EQ(cache.store_batch({entry_for(0xc, 5)}), 1u);
  {
    std::ifstream in(fs::path(dir) / "index.txt");
    std::string first;
    std::getline(in, first);
    EXPECT_EQ(first, "addm-eval-cache 1");  // append kept the index's version
    std::string line;
    while (std::getline(in, line))
      EXPECT_EQ(std::count(line.begin(), line.end(), ' '), 2) << line;
  }
  // record_hits has no v1 grammar to write; it reports failure, changes
  // nothing, and the directory stays fully readable.
  EXPECT_FALSE(cache.record_hits({{{0xa, 5}, 1}}));
  EXPECT_EQ(cache.load_all().size(), 3u);

  ASSERT_TRUE(cache.compact().ok);
  EXPECT_EQ(cache.stats().index_version, kEvalCacheFormatVersion);
  EXPECT_EQ(cache.load_all().size(), 3u);
  EXPECT_TRUE(cache.record_hits({{{0xa, 5}, 1}}));
}

TEST(CacheLifecycle, FutureVersionIsRefusedUntouched) {
  const std::string dir = fresh_dir("future");
  EvalCacheDir cache(dir);
  ASSERT_TRUE(cache.store(entry_for(1, 6)));
  std::string index = slurp(fs::path(dir) / "index.txt");
  index.replace(index.find("addm-eval-cache 2"), 17, "addm-eval-cache 9");
  std::ofstream(fs::path(dir) / "index.txt", std::ios::trunc) << index;

  const auto before = dir_bytes(dir);
  EXPECT_FALSE(cache.compact().ok);
  EXPECT_FALSE(cache.prune(0, 0).ok);
  EXPECT_EQ(cache.store_batch({entry_for(2, 6)}), 0u);
  EXPECT_FALSE(cache.record_hits({{{1, 6}, 1}}));
  EXPECT_EQ(dir_bytes(dir), before);  // refused means untouched
  EXPECT_EQ(cache.stats().entries, 0u);  // and unreadable reads as empty
}

TEST(CacheLifecycle, BudgetedFlushMatchesOfflinePrune) {
  // BatchOptions::cache_budget_bytes at flush time must leave the same
  // bytes on disk as an unbudgeted flush followed by an offline prune to
  // the same budget — the online path is the offline path.
  const auto traces = seq::standard_suite({8, 8});

  const std::string offline = fresh_dir("budget_offline");
  {
    BatchOptions opt;
    opt.threads = 2;
    opt.cache_dir = offline;
    run_and_flush(opt, traces);
  }
  const auto unpruned_entries = EvalCacheDir(offline).stats().entries;
  // Budget = half the unbudgeted payload: guarantees real eviction while
  // staying independent of entry-size details.
  const std::uint64_t kBudget = EvalCacheDir(offline).stats().payload_bytes / 2;
  ASSERT_GT(kBudget, 0u);
  ASSERT_TRUE(EvalCacheDir(offline).prune(UINT64_MAX, kBudget).ok);

  const std::string online = fresh_dir("budget_online");
  BatchExplorer::FlushStats cold;
  {
    BatchOptions opt;
    opt.threads = 2;
    opt.cache_dir = online;
    opt.cache_budget_bytes = kBudget;
    run_and_flush(opt, traces, &cold);
  }
  EXPECT_GT(cold.evicted, 0u);
  EXPECT_LT(EvalCacheDir(online).stats().entries, unpruned_entries);
  EXPECT_LE(EvalCacheDir(online).stats().payload_bytes, kBudget);
  EXPECT_EQ(dir_bytes(online), dir_bytes(offline));
}

TEST(CacheLifecycle, PrunedWarmStartReportMatchesColdRun) {
  // The acceptance contract: pruning turns hits into misses, never into
  // wrong answers.  A warm start from a heavily pruned cache must emit a
  // report byte-identical to the cold run's.
  const auto traces = seq::standard_suite({8, 8});
  const std::string dir = fresh_dir("warm_after_prune");
  BatchOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir;

  const BatchResult cold = run_and_flush(opt, traces);
  ASSERT_TRUE(EvalCacheDir(dir).prune(3, UINT64_MAX).ok);

  const BatchResult warm = run_and_flush(opt, traces);
  EXPECT_EQ(warm.disk_hits + warm.evaluations, traces.size());
  EXPECT_GT(warm.evaluations, 0u);  // pruned keys really are misses
  EXPECT_EQ(batch_report_csv(warm), batch_report_csv(cold));
  EXPECT_EQ(batch_report_json(warm), batch_report_json(cold));

  // The flush restored the evicted keys: a third run is all-disk again.
  const BatchResult healed = BatchExplorer(opt).run(traces);
  EXPECT_EQ(healed.evaluations, 0u);
  EXPECT_EQ(healed.disk_hits, traces.size());
}

TEST(CacheLifecycle, RunOnlyQueuesUntilFlushOrPruneDisk) {
  // run() reads the cache directory but never writes it, with or without a
  // byte budget: new entries and warm-start hit credits wait in the queue.
  // flush_disk() persists the queue; prune_disk() persists it before it
  // compacts, so a queued entry survives the compact.
  const auto traces = seq::standard_suite({8, 8});
  const std::vector<seq::AddressTrace> seed(traces.begin(), traces.begin() + 4);
  for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{UINT64_MAX}}) {
    for (const bool compact : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "budget " << budget << ", compact " << compact);
      const std::string dir = fresh_dir("run_only_reads");
      BatchOptions opt;
      opt.threads = 2;
      opt.cache_dir = dir;
      opt.cache_budget_bytes = budget;
      run_and_flush(opt, seed);
      const auto seeded = dir_bytes(dir);
      const std::size_t seeded_entries = EvalCacheDir(dir).stats().entries;

      BatchExplorer explorer(opt);
      const BatchResult r = explorer.run(traces);
      EXPECT_GT(r.disk_hits, 0u);
      EXPECT_GT(r.evaluations, 0u);
      EXPECT_EQ(explorer.pending_flush(), r.evaluations);
      EXPECT_EQ(dir_bytes(dir), seeded) << "run() wrote the cache directory";

      if (compact) {
        const EvalCacheDir::MaintenanceStats m =
            explorer.prune_disk(UINT64_MAX, UINT64_MAX);
        ASSERT_TRUE(m.ok);
        EXPECT_EQ(m.kept, seeded_entries + r.evaluations);
        EXPECT_EQ(m.evicted, 0u);
      } else {
        EXPECT_EQ(explorer.flush_disk().stored, r.evaluations);
      }
      EXPECT_EQ(explorer.pending_flush(), 0u);
      EXPECT_NE(dir_bytes(dir), seeded);
      const BatchResult warm = BatchExplorer(opt).run(traces);
      EXPECT_EQ(warm.evaluations, 0u);
      EXPECT_EQ(warm.disk_hits, traces.size());
    }
  }
}

TEST(CacheLifecycle, ConcurrentStoreAndLoadSmoke) {
  // TSan-targeted: two stores and a loader on one directory race freely
  // (maintenance excluded — it documents single-writer).  Nothing may
  // crash or report a torn read.
  const std::string dir = fresh_dir("concurrent_smoke");
  auto writer = [&](std::uint64_t salt) {
    EvalCacheDir cache(dir);
    std::vector<EvalCacheEntry> batch;
    for (std::uint64_t i = 0; i < 8; ++i)
      batch.push_back(entry_for(salt * 100 + i, 8));
    cache.store_batch(batch);
    cache.record_hits({{{salt * 100, 8}, 1}});
  };
  std::thread w1(writer, 1), w2(writer, 2);
  {
    EvalCacheDir cache(dir);
    for (int i = 0; i < 20; ++i) (void)cache.load_all();
  }
  w1.join();
  w2.join();
  EvalCacheLoadStats stats;
  EXPECT_EQ(EvalCacheDir(dir).load_all(&stats).size(), 16u);
  EXPECT_EQ(stats.skipped, 0u);
}

}  // namespace
}  // namespace addm::core
