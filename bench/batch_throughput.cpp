// Host-performance benchmark for the batch explorer: end-to-end traces/sec
// across thread counts, and the cost profile of a fully warmed memo cache.
// These are throughput numbers for the exploration service itself, not paper
// quantities.
#include <benchmark/benchmark.h>

#include "core/batch_explorer.hpp"
#include "seq/workloads.hpp"

namespace {

using namespace addm;

const std::vector<seq::AddressTrace>& suite() {
  static const std::vector<seq::AddressTrace> traces = seq::scaled_suite({8, 8}, 2);
  return traces;
}

void BM_BatchExplore(benchmark::State& state) {
  core::BatchOptions opt;
  opt.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::BatchExplorer explorer(opt);  // fresh cache: every trace evaluated
    benchmark::DoNotOptimize(explorer.run(suite()).entries.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(suite().size()));
}
BENCHMARK(BM_BatchExplore)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_BatchExploreWarmCache(benchmark::State& state) {
  core::BatchOptions opt;
  opt.threads = static_cast<std::size_t>(state.range(0));
  core::BatchExplorer explorer(opt);
  explorer.run(suite());  // warm
  for (auto _ : state)
    benchmark::DoNotOptimize(explorer.run(suite()).cache_hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(suite().size()));
}
BENCHMARK(BM_BatchExploreWarmCache)->Arg(1)->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ReportCsv(benchmark::State& state) {
  core::BatchExplorer explorer(core::BatchOptions{});
  const core::BatchResult result = explorer.run(suite());
  for (auto _ : state)
    benchmark::DoNotOptimize(core::batch_report_csv(result).size());
}
BENCHMARK(BM_ReportCsv);

}  // namespace

BENCHMARK_MAIN();
