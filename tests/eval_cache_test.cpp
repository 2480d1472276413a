// Tests for the persistent evaluation cache: serialization round trips,
// corruption tolerance (bad index lines, truncated entries, stale versions),
// concurrent writers, merge, and the BatchExplorer disk integration.  The
// robustness contract under test: damaged cache content degrades to cache
// misses — never crashes, never wrong results.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
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
  const fs::path dir = fs::path(::testing::TempDir()) / "addm_eval_cache" / name;
  fs::remove_all(dir);
  fs::create_directories(dir.parent_path());
  return dir.string();
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

EvalCacheEntry sample_entry(std::uint64_t trace_hash = 0x1111,
                            std::uint64_t options_hash = 0x2222) {
  EvalCacheEntry e;
  e.key = {trace_hash, options_hash};
  DesignPoint a;
  a.architecture = "SRAG";
  a.feasible = true;
  a.note = "row: 3 regs/9 ffs dC=1 pC=2; col: 3 regs/9 ffs dC=1 pC=2";
  a.metrics.area_units = 123.456;
  a.metrics.delay_ns = -0.25;
  a.metrics.clk_to_out_ns = 1e-300;  // subnormal-adjacent: bit-exact round trip
  a.metrics.reg_to_reg_ns = 0.1;     // not exactly representable
  a.metrics.cells = 42;
  a.metrics.flipflops = 18;
  a.metrics.buffers_added = 3;
  DesignPoint b;
  b.architecture = "FSM-binary";
  b.feasible = false;
  b.note = "weird \"quoted\" 100% note,\nwith newline";
  DesignPoint c;
  c.architecture = "CntAG-flat";
  c.feasible = true;
  c.note = "";  // empty strings must survive the round trip
  e.points = {a, b, c};
  e.pareto = {0, 2};
  return e;
}

bool entries_equal(const EvalCacheEntry& x, const EvalCacheEntry& y) {
  if (!(x.key == y.key) || x.pareto != y.pareto || x.points.size() != y.points.size())
    return false;
  for (std::size_t i = 0; i < x.points.size(); ++i) {
    const DesignPoint& p = x.points[i];
    const DesignPoint& q = y.points[i];
    if (p.architecture != q.architecture || p.feasible != q.feasible ||
        p.note != q.note || p.metrics.area_units != q.metrics.area_units ||
        p.metrics.delay_ns != q.metrics.delay_ns ||
        p.metrics.clk_to_out_ns != q.metrics.clk_to_out_ns ||
        p.metrics.reg_to_reg_ns != q.metrics.reg_to_reg_ns ||
        p.metrics.cells != q.metrics.cells ||
        p.metrics.flipflops != q.metrics.flipflops ||
        p.metrics.buffers_added != q.metrics.buffers_added)
      return false;
  }
  return true;
}

TEST(EvalCacheFormat, SerializeParseRoundTrip) {
  const EvalCacheEntry e = sample_entry();
  const std::string text = serialize_eval_entry(e);
  EvalCacheEntry back;
  ASSERT_TRUE(parse_eval_entry(text, back));
  EXPECT_TRUE(entries_equal(e, back));
  // Canonical: serializing the parsed entry reproduces the bytes.
  EXPECT_EQ(serialize_eval_entry(back), text);
}

TEST(EvalCacheFormat, ParseRejectsDamage) {
  const std::string text = serialize_eval_entry(sample_entry());
  EvalCacheEntry out;

  EXPECT_FALSE(parse_eval_entry("", out));
  EXPECT_FALSE(parse_eval_entry("\n", out));  // regression: used to read OOB
  EXPECT_FALSE(parse_eval_entry("x", out));
  EXPECT_FALSE(parse_eval_entry("garbage\n", out));

  // Any truncation fails (checksum line missing or payload cut short).
  for (std::size_t cut : {text.size() - 1, text.size() / 2, std::size_t{5}})
    EXPECT_FALSE(parse_eval_entry(text.substr(0, cut), out)) << "cut=" << cut;

  // A single flipped byte in the payload fails the checksum.
  std::string flipped = text;
  flipped[text.size() / 3] ^= 0x01;
  EXPECT_FALSE(parse_eval_entry(flipped, out));

  // A future format version is rejected even with a valid checksum.
  EvalCacheEntry e = sample_entry();
  std::string future = serialize_eval_entry(e);
  future.replace(future.find(" 1\n"), 3, " 2\n");
  EXPECT_FALSE(parse_eval_entry(future, out));
}

TEST(EvalCacheDirTest, StoreLoadAndFilter) {
  EvalCacheDir cache(fresh_dir("store_load"));
  const EvalCacheEntry a = sample_entry(0xaaa, 0x100);
  const EvalCacheEntry b = sample_entry(0xbbb, 0x100);
  const EvalCacheEntry c = sample_entry(0xccc, 0x200);
  EXPECT_TRUE(cache.store(a));
  EXPECT_TRUE(cache.store(b));
  EXPECT_TRUE(cache.store(c));
  EXPECT_TRUE(cache.store(b));  // duplicate store is harmless

  EvalCacheLoadStats stats;
  const auto all = cache.load_all(&stats);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(stats.loaded, 3u);
  EXPECT_EQ(stats.skipped, 0u);
  // Sorted by key regardless of store order.
  EXPECT_TRUE(entries_equal(all[0], a));
  EXPECT_TRUE(entries_equal(all[1], b));
  EXPECT_TRUE(entries_equal(all[2], c));

  // Filtering by options hash keeps the key order.
  std::vector<EvalCacheEntry> matching;
  for (const auto& e : all)
    if (e.key.options_hash == 0x100) matching.push_back(e);
  ASSERT_EQ(matching.size(), 2u);
  EXPECT_TRUE(entries_equal(matching[0], a));
  EXPECT_TRUE(entries_equal(matching[1], b));
}

TEST(EvalCacheDirTest, MissingDirectoryLoadsNothing) {
  EvalCacheDir cache(fresh_dir("never_created") + "/nope");
  EvalCacheLoadStats stats;
  EXPECT_TRUE(cache.load_all(&stats).empty());
  EXPECT_EQ(stats.loaded, 0u);
  EXPECT_EQ(stats.skipped, 0u);
}

TEST(EvalCacheDirTest, CorruptedIndexLinesAreSkipped) {
  const std::string dir = fresh_dir("bad_index");
  EvalCacheDir cache(dir);
  ASSERT_TRUE(cache.store(sample_entry(0xaaa, 0x100)));
  {
    std::ofstream out(fs::path(dir) / "index.txt", std::ios::app);
    out << "entry nothex nothex\n";
    out << "torn entry 0000000000000aaa 00000000000\n";
    out << "entry 0000000000000bbb 0000000000000100\n";  // valid line, no file
  }
  EvalCacheLoadStats stats;
  const auto all = cache.load_all(&stats);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(stats.loaded, 1u);
  EXPECT_EQ(stats.skipped, 3u);
}

TEST(EvalCacheDirTest, TruncatedAndCorruptEntryFilesAreSkipped) {
  const std::string dir = fresh_dir("bad_entry");
  EvalCacheDir cache(dir);
  const EvalCacheEntry keep = sample_entry(0xaaa, 0x100);
  const EvalCacheEntry hurt = sample_entry(0xbbb, 0x100);
  ASSERT_TRUE(cache.store(keep));
  ASSERT_TRUE(cache.store(hurt));

  const fs::path victim =
      fs::path(dir) / "0000000000000bbb-0000000000000100.entry";
  ASSERT_TRUE(fs::exists(victim));
  // Truncate to half size, as if the writer died mid-write without the
  // atomic rename (or the disk lost the tail).
  std::string text;
  {
    std::ifstream in(victim, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    text = os.str();
  }
  { std::ofstream(victim, std::ios::binary | std::ios::trunc) << text.substr(0, text.size() / 2); }

  EvalCacheLoadStats stats;
  auto all = cache.load_all(&stats);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_TRUE(entries_equal(all[0], keep));
  EXPECT_EQ(stats.skipped, 1u);

  // A bit flip (checksum mismatch) is also just a miss.
  std::string flipped = text;
  flipped[flipped.size() / 2] ^= 0x40;
  { std::ofstream(victim, std::ios::binary | std::ios::trunc) << flipped; }
  all = cache.load_all(&stats);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(stats.skipped, 1u);
}

TEST(EvalCacheDirTest, VanishedOrNonFilePayloadDegradesToMiss) {
  // Regression: the hit path must stat before reading.  A payload file that
  // vanished — or worse, was replaced by a directory — used to surface a
  // stream read error; it must be an ordinary miss on every load API.
  const std::string dir = fresh_dir("vanished_payload");
  EvalCacheDir cache(dir);
  const EvalCacheEntry keep = sample_entry(0xaaa, 0x100);
  const EvalCacheEntry gone = sample_entry(0xbbb, 0x100);
  ASSERT_TRUE(cache.store(keep));
  ASSERT_TRUE(cache.store(gone));

  const fs::path victim = fs::path(dir) / "0000000000000bbb-0000000000000100.entry";
  ASSERT_TRUE(fs::remove(victim));
  fs::create_directories(victim);  // now a directory under the payload name

  EvalCacheEntry out;
  EXPECT_FALSE(cache.load_entry(gone.key, out));
  EXPECT_TRUE(cache.load_entry(keep.key, out));

  EvalCacheLoadStats stats;
  const auto all = cache.load_all(&stats);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_TRUE(entries_equal(all[0], keep));
  EXPECT_EQ(stats.skipped, 1u);

  // The batch layer sees the same miss and recovers by re-evaluating.
  const std::string batch_dir = fresh_dir("vanished_batch");
  const auto traces = seq::standard_suite({8, 8});
  BatchOptions opt;
  opt.threads = 2;
  opt.cache_dir = batch_dir;
  const BatchResult cold = run_and_flush(opt, traces);
  bool replaced_one = false;
  for (const auto& f : fs::directory_iterator(batch_dir)) {
    if (f.path().extension() != ".entry" || replaced_one) continue;
    fs::remove(f.path());
    fs::create_directories(f.path());
    replaced_one = true;
  }
  ASSERT_TRUE(replaced_one);
  const BatchResult redone = BatchExplorer(opt).run(traces);
  EXPECT_EQ(redone.evaluations, 1u);
  EXPECT_EQ(batch_report_csv(redone), batch_report_csv(cold));
}

TEST(EvalCacheDirTest, StaleIndexVersionReadsAsEmpty) {
  const std::string dir = fresh_dir("stale_version");
  EvalCacheDir cache(dir);
  ASSERT_TRUE(cache.store(sample_entry()));
  // Rewrite the header to a future version; everything becomes unreachable
  // (but nothing throws, and the files are left alone).
  std::string index;
  {
    std::ifstream in(fs::path(dir) / "index.txt");
    std::ostringstream os;
    os << in.rdbuf();
    index = os.str();
  }
  index.replace(index.find("addm-eval-cache 2"), 17, "addm-eval-cache 9");
  { std::ofstream(fs::path(dir) / "index.txt", std::ios::trunc) << index; }

  EvalCacheLoadStats stats;
  EXPECT_TRUE(cache.load_all(&stats).empty());
  EXPECT_EQ(stats.loaded, 0u);
  EXPECT_GE(stats.skipped, 1u);

  // Writers refuse the mismatched index too: appending would "store"
  // entries no reader of this version could ever see.
  EXPECT_FALSE(cache.store(sample_entry(0xddd, 0x300)));
}

TEST(EvalCacheDirTest, MergeCopiesOnlyMissingEntries) {
  const std::string src = fresh_dir("merge_src");
  const std::string dst = fresh_dir("merge_dst");
  EvalCacheDir src_cache(src), dst_cache(dst);
  ASSERT_TRUE(src_cache.store(sample_entry(0xaaa, 0x100)));
  ASSERT_TRUE(src_cache.store(sample_entry(0xbbb, 0x100)));
  ASSERT_TRUE(dst_cache.store(sample_entry(0xbbb, 0x100)));  // already present

  EXPECT_EQ(EvalCacheDir::merge(dst, src).copied, 1u);
  EXPECT_EQ(dst_cache.load_all().size(), 2u);
  // Idempotent: a second merge copies nothing.
  EXPECT_EQ(EvalCacheDir::merge(dst, src).copied, 0u);
  // Merging into a brand-new dir copies everything.
  const std::string dst2 = fresh_dir("merge_dst2");
  const auto full = EvalCacheDir::merge(dst2, src);
  EXPECT_EQ(full.copied, 2u);
  EXPECT_EQ(full.failed, 0u);
}

TEST(EvalCacheDirTest, MergeReportsUnwritableDestination) {
  const std::string src = fresh_dir("merge_fail_src");
  EvalCacheDir src_cache(src);
  ASSERT_TRUE(src_cache.store(sample_entry(0xaaa, 0x100)));
  ASSERT_TRUE(src_cache.store(sample_entry(0xbbb, 0x100)));
  // A destination nested under a regular file can never be created, for any
  // user (permission-based setups are invisible to root).
  const std::string blocker = fresh_dir("merge_fail_blocker");
  fs::create_directories(blocker);
  { std::ofstream(fs::path(blocker) / "file") << "x"; }
  const auto stats =
      EvalCacheDir::merge((fs::path(blocker) / "file" / "dst").string(), src);
  EXPECT_EQ(stats.copied, 0u);
  EXPECT_EQ(stats.failed, 2u);
}

TEST(EvalCacheDirTest, ConcurrentWritersAndReadersStaySane) {
  // Two writer threads with independent handles (standing in for two
  // processes: the on-disk protocol is identical) plus a reader hammering
  // load_all.  Nothing may crash, and every stored entry must be loadable
  // afterwards.
  const std::string dir = fresh_dir("concurrent");
  constexpr int kPerWriter = 24;
  auto writer = [&](std::uint64_t salt) {
    EvalCacheDir cache(dir);
    for (int i = 0; i < kPerWriter; ++i)
      cache.store(sample_entry(salt * 1000 + static_cast<std::uint64_t>(i), 0x42));
  };
  std::thread w1(writer, 1), w2(writer, 2);
  {
    EvalCacheDir cache(dir);
    for (int i = 0; i < 50; ++i) {
      const auto partial = cache.load_all();
      EXPECT_LE(partial.size(), 2u * kPerWriter);
    }
  }
  w1.join();
  w2.join();
  EvalCacheLoadStats stats;
  const auto all = EvalCacheDir(dir).load_all(&stats);
  EXPECT_EQ(all.size(), 2u * kPerWriter);
  EXPECT_EQ(stats.skipped, 0u);
}

TEST(EvalCacheBatch, SecondExplorerIsServedEntirelyFromDisk) {
  const std::string dir = fresh_dir("batch_warm");
  const auto traces = seq::standard_suite({8, 8});

  BatchOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir;

  BatchExplorer::FlushStats first_flush;
  const BatchResult first = run_and_flush(opt, traces, &first_flush);
  EXPECT_GT(first.evaluations, 0u);
  EXPECT_EQ(first.disk_hits, 0u);
  EXPECT_EQ(first_flush.stored, first.evaluations);

  BatchExplorer::FlushStats second_flush;
  const BatchResult second = run_and_flush(opt, traces, &second_flush);
  EXPECT_EQ(second.evaluations, 0u);
  EXPECT_EQ(second.cache_hits, 0u);
  EXPECT_EQ(second.disk_hits, traces.size());
  EXPECT_EQ(second.disk_entries_loaded, first_flush.stored);
  EXPECT_EQ(second_flush.stored, 0u);

  // The disk round trip must not perturb a single byte of the reports.
  EXPECT_EQ(batch_report_csv(first), batch_report_csv(second));
  EXPECT_EQ(batch_report_json(first), batch_report_json(second));
}

TEST(EvalCacheBatch, DifferentOptionsMissTheDiskCache) {
  const std::string dir = fresh_dir("batch_opts");
  const auto traces = seq::standard_suite({8, 8});
  BatchOptions a;
  a.threads = 2;
  a.cache_dir = dir;
  run_and_flush(a, traces);

  BatchOptions b = a;
  b.explore.include_fsm = false;
  BatchExplorer other(b);
  const BatchResult result = other.run(traces);
  EXPECT_EQ(result.disk_hits, 0u);
  EXPECT_GT(result.evaluations, 0u);
}

TEST(EvalCacheBatch, CorruptedCacheDegradesToReevaluation) {
  const std::string dir = fresh_dir("batch_corrupt");
  const auto traces = seq::standard_suite({8, 8});
  BatchOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir;
  const BatchResult clean = run_and_flush(opt, traces);

  // Vandalize every entry file; keep the index.
  for (const auto& f : fs::directory_iterator(dir)) {
    if (f.path().extension() != ".entry") continue;
    std::ofstream(f.path(), std::ios::binary | std::ios::trunc) << "junk";
  }

  const BatchResult redone = run_and_flush(opt, traces);
  EXPECT_EQ(redone.disk_hits, 0u);
  EXPECT_EQ(redone.evaluations, clean.evaluations);
  EXPECT_EQ(batch_report_csv(redone), batch_report_csv(clean));

  // And the re-run healed the cache: a third explorer is disk-warm again.
  const BatchResult healed = BatchExplorer(opt).run(traces);
  EXPECT_EQ(healed.evaluations, 0u);
  EXPECT_EQ(healed.disk_hits, traces.size());
}

TEST(EvalCacheBatch, FilteredRunNeverPoisonsAFullRunsCache) {
  // An --archs subset produces a different (smaller) point vector for the
  // same trace, so it must live under a different cache key: a full-options
  // run after a filtered one must see zero disk hits, and vice versa.
  const std::string dir = fresh_dir("batch_archs");
  const auto traces = seq::standard_suite({8, 8});

  BatchOptions filtered;
  filtered.threads = 2;
  filtered.cache_dir = dir;
  filtered.explore.archs = {"SRAG", "CntAG-flat"};
  BatchExplorer::FlushStats f_flush;
  const BatchResult f = run_and_flush(filtered, traces, &f_flush);
  EXPECT_GT(f_flush.stored, 0u);

  BatchOptions full;
  full.threads = 2;
  full.cache_dir = dir;
  const BatchResult cold = run_and_flush(full, traces);
  EXPECT_EQ(cold.disk_hits, 0u);
  EXPECT_EQ(cold.disk_entries_loaded, 0u);
  EXPECT_GT(cold.evaluations, 0u);
  const std::size_t full_points = generator_names().size();
  for (const auto& e : cold.entries) EXPECT_EQ(e.points.size(), full_points);

  // Both option sets now coexist in one directory; each rerun is warm.
  const BatchResult warm_full = BatchExplorer(full).run(traces);
  EXPECT_EQ(warm_full.evaluations, 0u);
  EXPECT_EQ(warm_full.disk_hits, traces.size());
  const BatchResult warm_filtered = BatchExplorer(filtered).run(traces);
  EXPECT_EQ(warm_filtered.evaluations, 0u);
  EXPECT_EQ(warm_filtered.disk_hits, traces.size());
  EXPECT_EQ(batch_report_csv(warm_filtered), batch_report_csv(f));
}

TEST(EvalCacheBatch, CacheDirectoryBytesIndependentOfThreadCount) {
  // Entry files are canonical and the flush is sorted by cache key, so two
  // cold runs with different thread counts must write byte-identical
  // directories — the property the arch_determinism ctest entry enforces
  // end-to-end through the CLI.  Duplicated traces are the hard case: with
  // threads > 1 even the evaluation *owner* of a duplicated key is a race,
  // so any schedule-derived flush order would leak into index.txt.
  auto traces = seq::standard_suite({8, 8});
  traces.push_back(traces[0]);
  traces.insert(traces.begin(), traces[2]);
  auto populate = [&](const std::string& name, std::size_t threads) {
    const std::string dir = fresh_dir(name);
    BatchOptions opt;
    opt.threads = threads;
    opt.cache_dir = dir;
    run_and_flush(opt, traces);
    std::map<std::string, std::string> files;
    for (const auto& f : fs::directory_iterator(dir)) {
      std::ifstream in(f.path(), std::ios::binary);
      std::ostringstream body;
      body << in.rdbuf();
      files[f.path().filename().string()] = body.str();
    }
    return files;
  };
  const auto reference = populate("threads_ref", 1);
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(populate("threads_2", 2), reference);
  EXPECT_EQ(populate("threads_4", 4), reference);
  EXPECT_EQ(populate("threads_8", 8), reference);
}

}  // namespace
}  // namespace addm::core
