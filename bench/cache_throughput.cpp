// Host-performance benchmark for the persistent evaluation cache: cost of a
// disk-warm batch run (load + deserialize vs. re-exploring), of flushing a
// cold run to disk, and of the raw entry serialization round trip.  These
// bound the win of sharing a cache directory across processes: a disk hit
// is profitable whenever it is cheaper than the evaluation it replaces.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "core/batch_explorer.hpp"
#include "core/eval_cache.hpp"
#include "core/fingerprint.hpp"
#include "seq/workloads.hpp"

namespace {

using namespace addm;

const std::vector<seq::AddressTrace>& suite() {
  static const std::vector<seq::AddressTrace> traces = seq::scaled_suite({8, 8}, 2);
  return traces;
}

std::string bench_dir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / "addm_cache_bench" / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

void BM_ColdRunWithFlush(benchmark::State& state) {
  core::BatchOptions opt;
  opt.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    opt.cache_dir = bench_dir("cold");  // empty dir: every trace evaluated + stored
    state.ResumeTiming();
    core::BatchExplorer explorer(opt);
    explorer.run(suite());
    benchmark::DoNotOptimize(explorer.flush_disk().stored);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(suite().size()));
}
BENCHMARK(BM_ColdRunWithFlush)->Arg(1)->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_DiskWarmRun(benchmark::State& state) {
  core::BatchOptions opt;
  opt.threads = static_cast<std::size_t>(state.range(0));
  opt.cache_dir = bench_dir("warm");
  {
    core::BatchExplorer populate(opt);  // populate once
    populate.run(suite());
    populate.flush_disk();
  }
  for (auto _ : state) {
    core::BatchExplorer explorer(opt);  // fresh memo table: all hits come from disk
    benchmark::DoNotOptimize(explorer.run(suite()).disk_hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(suite().size()));
}
BENCHMARK(BM_DiskWarmRun)->Arg(1)->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_EntrySerializeParse(benchmark::State& state) {
  core::BatchOptions opt;
  opt.threads = 0;
  core::BatchExplorer explorer(opt);
  const core::BatchResult result = explorer.run(suite());
  core::EvalCacheEntry entry;
  entry.key = {result.entries[0].trace_hash,
               core::options_fingerprint(opt.explore)};
  entry.points = result.entries[0].points;
  entry.pareto = result.entries[0].pareto;
  for (auto _ : state) {
    const std::string text = core::serialize_eval_entry(entry);
    core::EvalCacheEntry back;
    benchmark::DoNotOptimize(core::parse_eval_entry(text, back));
  }
}
BENCHMARK(BM_EntrySerializeParse);

}  // namespace

BENCHMARK_MAIN();
