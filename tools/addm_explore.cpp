// addm_explore — batch design-space exploration CLI.
//
// Evaluates every applicable address-generator architecture (SRAG,
// multi-counter SRAG, CntAG variants, symbolic FSMs, SFM) for each input
// trace, concurrently, and emits an aggregated CSV or JSON report with
// per-trace Pareto fronts.
//
// Inputs are any mix of:
//   --suite N         the built-in workload suite over N doubling geometries
//                     (9 traces per geometry; --suite 12 gives 108 traces;
//                     no geometry may exceed seq::kMaxSuiteCells cells)
//   --trace FILE      a trace file in the seq/trace_io text format
//   --trace-dir DIR   every *.trace file in DIR (sorted by name)
//
// The input, exploration-option and output flags are parsed by the code
// addm_client uses (tools/cli_util.hpp) into a serve::ExploreRequest, which
// runs in-process on the addm_serve daemon's path: serve::explore_traces,
// one BatchExplorer, serve::render_report.  The report is byte-identical
// for a given input list and options regardless of --threads and of cache
// warmth; timing and cache statistics go to stderr only.  --cache-dir
// persists evaluations across invocations, and --shard I/N restricts the
// run to a deterministic contiguous slice of the input list so N shard
// reports concatenate (via addm_merge) into the unsharded report.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cli_util.hpp"
#include "core/batch_explorer.hpp"
#include "serve/service.hpp"

namespace {

using addm::tools::need_value;
using addm::tools::usage_error;
using addm::tools::parse_bytes;
using addm::tools::parse_shard;
using addm::tools::parse_size;
using addm::tools::ShardSpec;

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "\n"
      << "input selection (at least one):\n"
      << "  --suite N            built-in workload suite over N geometries\n"
      << "  --base WxH           base geometry for --suite (default 8x8)\n"
      << "  --trace FILE         add one trace file (repeatable)\n"
      << "  --trace-dir DIR      add every *.trace file under DIR\n"
      << "\n"
      << "exploration:\n"
      << "  --threads N          worker threads, one trace each (default: hardware)\n"
      << "  --no-cache           disable (trace, options) memoization\n"
      << "  --cache-dir DIR      persistent evaluation cache shared across runs\n"
      << "  --cache-budget B     prune the cache directory to at most B payload\n"
      << "                       bytes after each flush (suffix k/m/g; requires\n"
      << "                       --cache-dir; never affects the report)\n"
      << "  --shard I/N          explore only shard I (0-based) of N\n"
      << addm::core::explore_flags_usage()
      << "\n"
      << "output:\n"
      << "  --format csv|json    report format (default csv)\n"
      << "  --out FILE           write report to FILE (default stdout)\n"
      << "  --quiet              suppress the stderr summary\n";
}

}  // namespace

int main(int argc, char** argv) {
  using addm::core::BatchExplorer;
  using addm::core::BatchOptions;
  using addm::serve::TraceSource;

  BatchOptions opt;
  addm::tools::ExploreArgs args;
  addm::serve::ExploreRequest& req = args.request;
  std::vector<std::string> trace_dirs;
  ShardSpec shard;

  for (int i = 1; i < argc; ++i) {
    if (addm::tools::parse_explore_arg(argc, argv, i, args)) continue;
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--trace-dir") {
      trace_dirs.push_back(need_value(argc, argv, i));
    } else if (arg == "--threads") {
      if (!parse_size(need_value(argc, argv, i), opt.threads) ||
          opt.threads > addm::tools::kMaxThreads)
        usage_error(argv[0], "--threads expects a number between 0 and " +
                                 std::to_string(addm::tools::kMaxThreads));
    } else if (arg == "--no-cache") {
      opt.memoize = false;
    } else if (arg == "--cache-dir") {
      opt.cache_dir = need_value(argc, argv, i);
    } else if (arg == "--cache-budget") {
      if (!parse_bytes(need_value(argc, argv, i), opt.cache_budget_bytes) ||
          opt.cache_budget_bytes == 0)
        usage_error(argv[0],
                    "--cache-budget expects a positive byte size (suffix k/m/g)");
    } else if (arg == "--shard") {
      if (!parse_shard(need_value(argc, argv, i), shard))
        usage_error(argv[0], "--shard expects I/N with 0 <= I < N <= " +
                                 std::to_string(addm::tools::kMaxShards) + " (e.g. 0/3)");
    } else {
      std::cerr << argv[0] << ": unknown option '" << arg << "'\n";
      usage(argv[0]);
      return 2;
    }
  }

  if (!opt.memoize && !opt.cache_dir.empty())
    usage_error(argv[0], "--no-cache and --cache-dir are mutually exclusive");
  if (opt.cache_budget_bytes != 0 && opt.cache_dir.empty())
    usage_error(argv[0], "--cache-budget requires --cache-dir");
  addm::tools::require_suite_fits(argv[0], req.suite_base, req.suite_scales);
  std::string unused;  // every option was checked while parsing
  addm::serve::build_explore_options(req, opt.explore, unused);

  std::vector<addm::seq::AddressTrace> traces;
  try {
    for (const std::string& dir : trace_dirs) {
      std::vector<std::string> found;
      for (const auto& e : std::filesystem::directory_iterator(dir))
        if (e.is_regular_file() && e.path().extension() == ".trace")
          found.push_back(e.path().string());
      std::sort(found.begin(), found.end());
      for (std::string& f : found)
        req.traces.push_back({TraceSource::Kind::kPath, std::move(f), {}});
    }
    // The shard slice is over list positions and report rows depend only on
    // trace content and names, so shard reports concatenate byte-identically
    // and an empty slice is a valid (empty-report) run.
    const std::size_t total = addm::serve::explore_trace_count(req);
    if (total == 0) {
      std::cerr << argv[0]
                << ": no input traces (use --suite, --trace or --trace-dir)\n";
      usage(argv[0]);
      return 2;
    }
    const auto [begin, end] = shard.range(total);
    traces = addm::serve::explore_traces(req, begin, end);
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 1;
  }

  addm::core::BatchResult result;
  BatchExplorer::FlushStats flushed;
  try {
    BatchExplorer explorer(opt);
    result = explorer.run(traces);
    flushed = explorer.flush_disk();
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": exploration failed: " << e.what() << "\n";
    return 1;
  }

  if (!addm::tools::write_report(argv[0], args.out_path,
                                 addm::serve::render_report(result, req.format)))
    return 1;

  std::size_t errors = 0;
  for (const auto& e : result.entries)
    if (!e.error.empty()) ++errors;
  if (!args.quiet) {
    std::fprintf(stderr,
                 "explored %zu traces (%zu evaluated, %zu memo hits, %zu disk hits, "
                 "%zu errors) in %.3fs with %zu threads\n",
                 result.traces, result.evaluations, result.cache_hits,
                 result.disk_hits, errors, result.wall_seconds,
                 opt.threads ? opt.threads
                             : static_cast<std::size_t>(
                                   std::max(1u, std::thread::hardware_concurrency())));
    if (!opt.cache_dir.empty()) {
      std::fprintf(stderr, "cache %s: %zu entries loaded, %zu stored\n",
                   opt.cache_dir.c_str(), result.disk_entries_loaded, flushed.stored);
      if (opt.cache_budget_bytes != 0)
        std::fprintf(stderr, "cache budget %llu bytes: %zu entries evicted\n",
                     static_cast<unsigned long long>(opt.cache_budget_bytes),
                     flushed.evicted);
    }
  }
  return errors == 0 ? 0 : 3;
}
