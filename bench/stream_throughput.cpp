// Trace-ingestion throughput: end-to-end cost of "trace file on disk ->
// gate-verified exploration report" through the plain pipeline
// (read_trace_file + explore the full trace) versus the periodic one
// (read_trace_file, then compress_periodic folds the trace into
// prefix + k x period + suffix and candidates are evaluated on a single
// period — the ExploreOptions::compress_periodic path).
//
// Exploration and gate-level verification both scale with what they are
// fed, so on a million-access periodic trace the compressed path wins by
// the compression ratio on the O(n) stages; on non-power-of-two periods
// the index->address transform minimization is super-linear in the
// sequence length and the gap widens by another order of magnitude.
//
// A parse-only row times TraceReader::read_all (the reader behind every
// trace file) on the million-access file, in MB/s of trace text.
//
// Emits BENCH_stream.run.json into the working directory: one record per
// (trace, path) with seconds, access counts, and the stored footprint, the
// end-to-end speedup per trace, and the parse row.  BENCH_stream.json in the
// repository root is the trajectory of such records, each with its label
// and host.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/explorer.hpp"
#include "seq/periodicity.hpp"
#include "seq/stream_io.hpp"
#include "seq/trace_io.hpp"

namespace {

using namespace addm;

struct Run {
  std::string trace;
  // "materialize" (full trace) | "stream+compress" (read, then compress;
  // the key is kept so the trajectory stays comparable).
  std::string path;
  std::size_t accesses = 0;
  std::size_t stored = 0;  // addresses stored by the factorization
  double seconds = 0.0;
  std::size_t points = 0;
};

/// One raster pass over `g`, repeated until the trace holds `repeats`
/// passes — the canonical "same loop nest every frame" workload.
seq::AddressTrace periodic_raster(seq::ArrayGeometry g, std::size_t repeats,
                                  const std::string& name) {
  std::vector<std::uint32_t> a;
  a.reserve(g.size() * repeats);
  for (std::size_t r = 0; r < repeats; ++r)
    for (std::size_t i = 0; i < g.size(); ++i)
      a.push_back(static_cast<std::uint32_t>(i));
  return seq::AddressTrace(g, std::move(a), name);
}

core::ExploreOptions bench_options() {
  core::ExploreOptions opt;
  opt.verify_front = true;  // gate-level replay is part of the end-to-end cost
  return opt;
}

/// Full-trace pipeline: parse the whole file, explore the full-length
/// trace.
Run run_materialize(const std::string& file, const std::string& label) {
  const auto t0 = std::chrono::steady_clock::now();
  const seq::AddressTrace trace = seq::read_trace_file(file);
  const auto points = core::explore_generators(trace, bench_options());
  const auto t1 = std::chrono::steady_clock::now();
  return {label, "materialize", trace.length(), trace.length(),
          std::chrono::duration<double>(t1 - t0).count(), points.size()};
}

/// Periodic pipeline: parse the whole file, fold it into
/// prefix + k x period + suffix, then evaluate candidates on a single period
/// — the explorer's own ExploreOptions::compress_periodic path.
Run run_compress(const std::string& file, const std::string& label) {
  const auto t0 = std::chrono::steady_clock::now();
  seq::CompressedTrace ct = seq::compress_periodic(seq::read_trace_file(file));
  const std::size_t length = ct.length();
  const std::size_t stored = ct.stored();
  std::vector<core::DesignPoint> points;
  if (ct.pure() && ct.compressed()) {
    const seq::AddressTrace one_period(ct.geometry, std::move(ct.period), ct.name);
    points = core::explore_generators(one_period, bench_options());
  } else {
    points = core::explore_generators(ct.expand(), bench_options());
  }
  const auto t1 = std::chrono::steady_clock::now();
  return {label, "stream+compress", length, stored,
          std::chrono::duration<double>(t1 - t0).count(), points.size()};
}

/// Parse-only throughput of `file`: median wall time of 5 read_all calls.
struct ParseRun {
  std::string trace;
  std::size_t bytes = 0;
  std::size_t accesses = 0;
  double seconds = 0.0;
  double mb_per_s() const { return seconds > 0 ? bytes / seconds / 1e6 : 0.0; }
};

seq::AddressTrace read_all(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  return seq::TraceReader(in).read_all();
}

ParseRun run_parse(const std::string& file, const std::string& label) {
  std::vector<double> seconds;
  std::size_t accesses = 0;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    accesses = read_all(file).length();
    seconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }
  std::sort(seconds.begin(), seconds.end());
  return {label, static_cast<std::size_t>(std::filesystem::file_size(file)), accesses,
          seconds[seconds.size() / 2]};
}

void print_table_and_json() {
  bench::print_header(
      "trace ingestion + periodicity compression: file -> verified\n"
      "report, full-trace vs compressed (one period) exploration");

  struct Workload {
    std::string label;
    seq::ArrayGeometry geometry;
    std::size_t repeats;
  };
  // raster-32x32-1m: the headline million-access trace (1024 x 1000).
  // raster-24x24-66k: non-power-of-two period, where the full-trace path's
  // transform minimization turns super-linear.
  const std::vector<Workload> workloads = {
      {"raster-32x32-1m", {32, 32}, 1000},
      {"raster-24x24-66k", {24, 24}, 114},
  };

  std::printf("%-18s %10s %10s %14s %18s %9s\n", "trace", "accesses", "stored",
              "materialize(s)", "stream+compress(s)", "speedup");

  std::vector<Run> runs;
  std::vector<std::pair<std::string, double>> speedups;
  ParseRun parse;
  for (const auto& w : workloads) {
    const std::string file = w.label + ".trace";
    seq::write_trace_file(file, periodic_raster(w.geometry, w.repeats, w.label));
    if (runs.empty()) parse = run_parse(file, w.label);
    const Run full = run_materialize(file, w.label);
    const Run comp = run_compress(file, w.label);
    std::remove(file.c_str());
    const double speedup = comp.seconds > 0 ? full.seconds / comp.seconds : 0.0;
    std::printf("%-18s %10zu %10zu %14.3f %18.3f %8.1fx\n", w.label.c_str(),
                full.accesses, comp.stored, full.seconds, comp.seconds, speedup);
    runs.push_back(full);
    runs.push_back(comp);
    speedups.emplace_back(w.label, speedup);
  }
  std::printf("\nparse only (read_all): %s, %zu bytes, %zu accesses: %.2f ms, %.1f MB/s\n\n",
              parse.trace.c_str(), parse.bytes, parse.accesses, parse.seconds * 1e3,
              parse.mb_per_s());

  // Deterministic-schema trajectory record (values are machine-dependent
  // timings; the schema and row order are stable).
  std::FILE* f = std::fopen("BENCH_stream.run.json", "w");
  if (!f) return;
  std::fprintf(f, "{\n  \"bench\": \"stream_throughput\",\n  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    std::fprintf(f,
                 "    {\"trace\": \"%s\", \"path\": \"%s\", \"accesses\": %zu, "
                 "\"stored\": %zu, \"seconds\": %.6f, \"points\": %zu}%s\n",
                 r.trace.c_str(), r.path.c_str(), r.accesses, r.stored, r.seconds,
                 r.points, i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"speedups\": [\n");
  for (std::size_t i = 0; i < speedups.size(); ++i)
    std::fprintf(f, "    {\"trace\": \"%s\", \"end_to_end\": %.1f}%s\n",
                 speedups[i].first.c_str(), speedups[i].second,
                 i + 1 < speedups.size() ? "," : "");
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"parse\": {\"trace\": \"%s\", \"bytes\": %zu, \"accesses\": %zu, "
               "\"seconds\": %.6f, \"mb_per_s\": %.1f}\n}\n",
               parse.trace.c_str(), parse.bytes, parse.accesses, parse.seconds,
               parse.mb_per_s());
  std::fclose(f);
  std::printf("wrote BENCH_stream.run.json (%zu runs + parse)\n\n", runs.size());
}

/// Shared fixture file for the registered benchmarks: one raster pass of
/// 32x32, repeated `repeats` times.
std::string bench_trace_file(std::size_t repeats) {
  const std::string file = "stream_bench_" + std::to_string(repeats) + ".trace";
  std::ifstream probe(file);
  if (!probe.good())
    seq::write_trace_file(file, periodic_raster({32, 32}, repeats, "loop"));
  return file;
}

void BM_ReadAll(benchmark::State& state) {
  const std::string file = bench_trace_file(1000);  // 1,024,000 accesses
  for (auto _ : state) benchmark::DoNotOptimize(read_all(file));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(std::filesystem::file_size(file)));
}
BENCHMARK(BM_ReadAll)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_MaterializingEndToEnd(benchmark::State& state) {
  const auto repeats = static_cast<std::size_t>(state.range(0));
  const std::string file = bench_trace_file(repeats);
  for (auto _ : state) benchmark::DoNotOptimize(run_materialize(file, "loop"));
  state.SetComplexityN(static_cast<std::int64_t>(repeats * 1024));
}
BENCHMARK(BM_MaterializingEndToEnd)->RangeMultiplier(2)->Range(64, 256)->Complexity();

void BM_CompressedEndToEnd(benchmark::State& state) {
  const auto repeats = static_cast<std::size_t>(state.range(0));
  const std::string file = bench_trace_file(repeats);
  for (auto _ : state) benchmark::DoNotOptimize(run_compress(file, "loop"));
  state.SetComplexityN(static_cast<std::int64_t>(repeats * 1024));
}
BENCHMARK(BM_CompressedEndToEnd)
    ->RangeMultiplier(2)
    ->Range(64, 256)
    ->Complexity();

}  // namespace

int main(int argc, char** argv) {
  print_table_and_json();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  for (std::size_t repeats : {64u, 128u, 256u, 1000u})
    std::remove(("stream_bench_" + std::to_string(repeats) + ".trace").c_str());
  return 0;
}
