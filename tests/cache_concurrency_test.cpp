// Regression tests for concurrent evaluation-cache access in the daemon
// configuration: readers probing a directory while a flush (store_batch +
// record_hits) is in progress, and while serialized maintenance
// (compact/prune) rewrites it.
//
// The property under test is the eval-cache robustness contract's reader
// half: a concurrent reader may MISS an entry that is mid-write or
// mid-rewrite, but it must never crash and never observe a WRONG hit — a
// load_entry success must always return exactly the content stored for
// that key.  Entries here encode their key into their content, so any
// cross-key mixup or torn read fails loudly.
//
// Also covers the BatchExplorer write path those writes come from: run()
// queues pending entries in memory, flush_disk() is the single serialized
// writer, prune_disk() maintains behind the same lock, and concurrent
// run() + flush_disk() + prune_disk() is safe.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_explorer.hpp"
#include "core/eval_cache.hpp"
#include "seq/workloads.hpp"

namespace addm::core {
namespace {

// One synthetic entry whose bytes are a pure function of its key: the
// verification oracle for the "never a wrong hit" property.
EvalCacheEntry entry_for(std::uint64_t i) {
  EvalCacheEntry e;
  e.key.trace_hash = 0x1000 + i;
  e.key.options_hash = 0xabcdef;
  DesignPoint p;
  p.architecture = "arch-" + std::to_string(i);
  p.feasible = true;
  p.note = "content for key " + std::to_string(i);
  p.metrics.area_units = static_cast<double>(i) * 1.5;
  p.metrics.delay_ns = static_cast<double>(i) + 0.25;
  p.metrics.cells = static_cast<std::size_t>(i);
  e.points.push_back(p);
  DesignPoint q;
  q.architecture = "alt-" + std::to_string(i);
  q.feasible = false;
  q.note = "infeasible for key " + std::to_string(i);
  e.points.push_back(q);
  e.pareto = {0};
  return e;
}

// Full content check: a hit must be byte-faithful to entry_for(i).
void expect_exact(const EvalCacheEntry& got, std::uint64_t i) {
  const EvalCacheEntry want = entry_for(i);
  ASSERT_EQ(got.key.trace_hash, want.key.trace_hash);
  ASSERT_EQ(got.key.options_hash, want.key.options_hash);
  ASSERT_EQ(serialize_eval_entry(got), serialize_eval_entry(want))
      << "wrong or torn content served for key " << i;
}

struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed * 2654435761u + 1) {}
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

TEST(CacheConcurrency, ReadersNeverSeeWrongHitsDuringFlushes) {
  const std::string dir =
      testing::TempDir() + "cache_concurrency_flush";
  std::filesystem::remove_all(dir);

  constexpr std::uint64_t kKeys = 48;
  constexpr std::size_t kBatch = 8;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> hits{0};

  // Writer: the daemon's flush pattern — batches of stores plus hit
  // records, repeated.
  std::thread writer([&] {
    EvalCacheDir cache(dir);
    for (std::uint64_t base = 0; base < kKeys; base += kBatch) {
      std::vector<EvalCacheEntry> batch;
      for (std::uint64_t i = base; i < base + kBatch && i < kKeys; ++i)
        batch.push_back(entry_for(i));
      cache.store_batch(batch);
      std::vector<std::pair<EvalCacheKey, std::uint64_t>> credit;
      for (const auto& e : batch) credit.emplace_back(e.key, 1);
      cache.record_hits(credit);
    }
    done.store(true);
  });

  // Readers: hammer load_entry across the whole key range while the writer
  // is mid-flush.  Every hit is content-verified.
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      EvalCacheDir cache(dir);
      Rng rng(static_cast<std::uint64_t>(r) + 7);
      while (!done.load()) {
        const std::uint64_t i = rng.next() % kKeys;
        EvalCacheEntry got;
        if (cache.load_entry(entry_for(i).key, got)) {
          expect_exact(got, i);
          hits.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  // `hits` is opportunistic (on a loaded single-core box the writer can
  // finish before any probe lands), so only the final state is asserted:
  // after the writer finishes every key must be a (correct) hit.
  EvalCacheDir cache(dir);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    EvalCacheEntry got;
    ASSERT_TRUE(cache.load_entry(entry_for(i).key, got)) << "key " << i;
    expect_exact(got, i);
  }
}

TEST(CacheConcurrency, ReadersSurviveSerializedMaintenanceRewrites) {
  const std::string dir =
      testing::TempDir() + "cache_concurrency_maint";
  std::filesystem::remove_all(dir);

  constexpr std::uint64_t kKeys = 32;
  {
    EvalCacheDir cache(dir);
    std::vector<EvalCacheEntry> batch;
    for (std::uint64_t i = 0; i < kKeys; ++i) batch.push_back(entry_for(i));
    ASSERT_EQ(cache.store_batch(batch), kKeys);
  }

  std::atomic<bool> done{false};

  // One maintainer (the daemon serializes maintenance, so a single thread
  // is the faithful model) alternating compact and prune-with-headroom —
  // every pass rewrites the index and payload files.
  std::thread maintainer([&] {
    EvalCacheDir cache(dir);
    for (int round = 0; round < 25; ++round) {
      if (round % 2 == 0) {
        const auto m = cache.compact();
        EXPECT_TRUE(m.ok);
        EXPECT_EQ(m.kept, kKeys);
      } else {
        const auto m = cache.prune(kKeys + 8, UINT64_MAX);
        EXPECT_TRUE(m.ok);
        EXPECT_EQ(m.evicted, 0u);
      }
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> hits{0};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      EvalCacheDir cache(dir);
      Rng rng(static_cast<std::uint64_t>(r) + 99);
      while (!done.load()) {
        const std::uint64_t i = rng.next() % kKeys;
        EvalCacheEntry got;
        // Mid-rewrite a probe may miss (the contract allows it); a hit
        // must be exact.
        if (cache.load_entry(entry_for(i).key, got)) {
          expect_exact(got, i);
          hits.fetch_add(1);
        }
        // Index-scan loads must tolerate rewrites the same way.
        if ((rng.next() & 15) == 0) {
          for (const auto& e : cache.load_all())
            if (e.key.options_hash == 0xabcdef)
              expect_exact(e, e.key.trace_hash - 0x1000);
        }
      }
    });
  }
  maintainer.join();
  for (auto& t : readers) t.join();

  // Maintenance preserved everything.
  EvalCacheDir cache(dir);
  EXPECT_EQ(cache.read_records().size(), kKeys);
  EXPECT_TRUE(cache.verify().clean());
}

TEST(CacheConcurrency, DeferredFlushAccumulatesThenPersistsOnce) {
  const std::string dir = testing::TempDir() + "cache_deferred_flush";
  std::filesystem::remove_all(dir);

  BatchOptions opt;
  opt.cache_dir = dir;
  opt.threads = 1;
  BatchExplorer explorer(opt);

  // The suite contains traces that alias to the same (trace, options) memo
  // key, so the number of distinct cache entries is the evaluation count,
  // not the trace count.
  const auto traces = seq::scaled_suite({8, 8}, 1);
  const BatchResult first = explorer.run(traces);
  const std::size_t unique = first.evaluations;
  ASSERT_GT(unique, 0u);
  EXPECT_EQ(explorer.pending_flush(), unique);
  EXPECT_TRUE(!std::filesystem::exists(dir) ||
              std::filesystem::is_empty(dir));

  const auto stats = explorer.flush_disk();
  EXPECT_EQ(stats.stored, unique);
  EXPECT_EQ(explorer.pending_flush(), 0u);
  EvalCacheDir cache(dir);
  EXPECT_EQ(cache.read_records().size(), unique);

  // Re-running after a flush is all memo hits and queues nothing new;
  // flush_disk becomes a no-op (but still credits nothing spuriously).
  const BatchResult second = explorer.run(traces);
  EXPECT_EQ(second.cache_hits, traces.size());
  EXPECT_EQ(explorer.pending_flush(), 0u);
  EXPECT_EQ(explorer.flush_disk().stored, 0u);

  // A fresh explorer warm-starts from disk and queues only the
  // hit credits, which flush as `hit` records, not duplicate entries.
  BatchExplorer warm(opt);
  const BatchResult third = warm.run(traces);
  EXPECT_EQ(third.disk_hits, traces.size());
  EXPECT_EQ(third.evaluations, 0u);
  warm.flush_disk();
  std::uint64_t total_hits = 0;
  for (const auto& rec : cache.read_records()) total_hits += rec.meta.hits;
  EXPECT_EQ(total_hits, traces.size());
}

TEST(CacheConcurrency, ConcurrentRunsAndFlushesAreSafe) {
  const std::string dir = testing::TempDir() + "cache_concurrent_runs";
  std::filesystem::remove_all(dir);

  BatchOptions opt;
  opt.cache_dir = dir;
  opt.threads = 1;
  BatchExplorer explorer(opt);

  // Two request threads with different option sets (the daemon's shape)
  // racing a flusher thread and a compacting maintenance thread.  Some
  // suite traces alias to one memo key, so the per-option-set entry count
  // is the unique-evaluation count.
  const auto traces = seq::scaled_suite({8, 8}, 1);
  const std::size_t unique = BatchExplorer(BatchOptions{}).run(traces).evaluations;
  std::atomic<bool> done{false};
  std::thread flusher([&] {
    while (!done.load()) explorer.flush_disk();
    explorer.flush_disk();
  });
  std::thread maintainer([&] {
    while (!done.load()) explorer.prune_disk(UINT64_MAX, UINT64_MAX);
  });
  std::thread worker_a([&] {
    for (int i = 0; i < 3; ++i) explorer.run(traces, ExploreOptions{});
  });
  std::thread worker_b([&] {
    ExploreOptions no_fsm;
    no_fsm.include_fsm = false;
    for (int i = 0; i < 3; ++i) explorer.run(traces, no_fsm);
  });
  worker_a.join();
  worker_b.join();
  done.store(true);
  flusher.join();
  maintainer.join();

  // Both option sets landed exactly once per unique key, and the directory
  // is canonical-valid.
  EvalCacheDir cache(dir);
  EXPECT_EQ(cache.read_records().size(), 2 * unique);
  EXPECT_TRUE(cache.verify().clean());

  // A cold offline explorer warm-starts entirely from what the daemon
  // flushed — and the report matches a cold run byte for byte.
  BatchOptions offline;
  offline.cache_dir = dir;
  offline.threads = 1;
  BatchExplorer warm(offline);
  const BatchResult warm_result = warm.run(traces);
  EXPECT_EQ(warm_result.disk_hits, traces.size());
  BatchExplorer cold(BatchOptions{});
  EXPECT_EQ(batch_report_csv(warm_result), batch_report_csv(cold.run(traces)));
}

}  // namespace
}  // namespace addm::core
