// addm_explore — batch design-space exploration CLI.
//
// Evaluates every applicable address-generator architecture (SRAG,
// multi-counter SRAG, CntAG variants, symbolic FSMs, SFM) for each input
// trace, concurrently, and emits an aggregated CSV or JSON report with
// per-trace Pareto fronts.
//
// Inputs are any mix of:
//   --suite N         the built-in workload suite over N doubling geometries
//                     (9 traces per geometry; --suite 12 gives 108 traces)
//   --trace FILE      a trace file in the seq/trace_io text format
//   --trace-dir DIR   every *.trace file in DIR (sorted by name)
//
// The report is byte-identical for a given input list and options regardless
// of --threads and of cache warmth; timing and cache statistics go to stderr
// only.  --cache-dir persists evaluations across invocations, and --shard I/N
// restricts the run to a deterministic contiguous slice of the input list so
// N shard reports concatenate (via addm_merge) into the unsharded report.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cli_util.hpp"
#include "core/batch_explorer.hpp"
#include "core/explore_flags.hpp"
#include "seq/stream_io.hpp"
#include "seq/trace_io.hpp"
#include "seq/workloads.hpp"

namespace {

using addm::core::explore_flag_arg;
using addm::core::ExploreFlag;
using addm::seq::parse_geometry;
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
      << "  --stream             read trace files with the chunked streaming\n"
      << "                       reader (identical traces and reports; peak\n"
      << "                       memory drops to one chunk + one line)\n"
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

  BatchOptions opt;
  std::size_t suite_scales = 0;
  addm::seq::ArrayGeometry base{8, 8};
  std::vector<std::string> trace_files;
  std::vector<std::string> trace_dirs;
  std::string format = "csv";
  std::string out_path;
  bool stream = false;
  bool quiet = false;
  bool have_shard = false;
  ShardSpec shard;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // A table option's empty value is as missing as an absent one.
    auto need_value = [&](bool nonempty = false) -> const char* {
      if (i + 1 >= argc || (nonempty && !*argv[i + 1])) {
        std::cerr << argv[0] << ": " << arg << " requires a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--suite") {
      if (!parse_size(need_value(), suite_scales) || suite_scales == 0) {
        std::cerr << argv[0] << ": --suite expects a positive count\n";
        return 2;
      }
    } else if (arg == "--base") {
      if (!parse_geometry(need_value(), base)) {
        std::cerr << argv[0] << ": --base expects WxH (e.g. 8x8)\n";
        return 2;
      }
    } else if (arg == "--trace") {
      trace_files.push_back(need_value());
    } else if (arg == "--trace-dir") {
      trace_dirs.push_back(need_value());
    } else if (arg == "--threads") {
      if (!parse_size(need_value(), opt.threads) ||
          opt.threads > addm::tools::kMaxThreads) {
        std::cerr << argv[0] << ": --threads expects a number between 0 and "
                  << addm::tools::kMaxThreads << "\n";
        return 2;
      }
    } else if (arg == "--no-cache") {
      opt.memoize = false;
    } else if (arg == "--cache-dir") {
      opt.cache_dir = need_value();
    } else if (arg == "--cache-budget") {
      if (!parse_bytes(need_value(), opt.cache_budget_bytes) ||
          opt.cache_budget_bytes == 0) {
        std::cerr << argv[0]
                  << ": --cache-budget expects a positive byte size (suffix k/m/g)\n";
        return 2;
      }
    } else if (arg == "--shard") {
      if (!parse_shard(need_value(), shard)) {
        std::cerr << argv[0] << ": --shard expects I/N with 0 <= I < N <= "
                  << addm::tools::kMaxShards << " (e.g. 0/3)\n";
        return 2;
      }
      have_shard = true;
    } else if (arg == "--stream") {
      stream = true;
    } else if (const ExploreFlag* f = explore_flag_arg(arg)) {
      std::string error;
      if (!addm::core::apply_explore_option(opt.explore, f->name,
                                            f->metavar.empty() ? "" : need_value(true),
                                            error)) {
        std::cerr << argv[0] << ": --" << error << "\n";
        return 2;
      }
    } else if (arg == "--format") {
      format = need_value();
      if (format != "csv" && format != "json") {
        std::cerr << argv[0] << ": --format must be csv or json\n";
        return 2;
      }
    } else if (arg == "--out") {
      out_path = need_value();
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::cerr << argv[0] << ": unknown option '" << arg << "'\n";
      usage(argv[0]);
      return 2;
    }
  }

  if (!opt.memoize && !opt.cache_dir.empty()) {
    std::cerr << argv[0] << ": --no-cache and --cache-dir are mutually exclusive\n";
    return 2;
  }
  if (opt.cache_budget_bytes != 0 && opt.cache_dir.empty()) {
    std::cerr << argv[0] << ": --cache-budget requires --cache-dir\n";
    return 2;
  }

  std::vector<addm::seq::AddressTrace> traces;
  try {
    std::vector<addm::seq::AddressTrace> suite;
    if (suite_scales > 0) suite = addm::seq::scaled_suite(base, suite_scales);
    std::vector<std::string> files = trace_files;
    for (const std::string& dir : trace_dirs) {
      std::vector<std::string> found;
      for (const auto& e : std::filesystem::directory_iterator(dir))
        if (e.is_regular_file() && e.path().extension() == ".trace")
          found.push_back(e.path().string());
      std::sort(found.begin(), found.end());
      files.insert(files.end(), found.begin(), found.end());
    }

    // The input list is suite traces followed by file traces.  The shard
    // slice is defined over list *positions*, so it is applied before any
    // file is read: each shard process parses only the traces it owns, and
    // an empty slice is a valid (empty-report) run.  Report rows depend
    // only on trace content and names — suite names and file stems, both
    // position-independent — so shard outputs concatenate byte-identically.
    const std::size_t total = suite.size() + files.size();
    if (total == 0) {
      std::cerr << argv[0]
                << ": no input traces (use --suite, --trace or --trace-dir)\n";
      usage(argv[0]);
      return 2;
    }
    std::size_t begin = 0;
    std::size_t end = total;
    if (have_shard) {
      const auto range = shard.range(total);
      begin = range.first;
      end = range.second;
    }
    for (std::size_t i = begin; i < end && i < suite.size(); ++i)
      traces.push_back(std::move(suite[i]));
    // --stream swaps the materializing file reader for the chunked
    // TraceReader; both produce identical AddressTraces (differential-
    // tested), so the choice is pure scheduling and not fingerprinted.
    auto read_file = [&](const std::string& f) {
      if (!stream) return addm::seq::read_trace_file(f);
      std::ifstream in(f, std::ios::binary);
      if (!in) throw std::runtime_error("cannot open trace file: " + f);
      addm::seq::TraceReader reader(in);
      return reader.read_all();
    };
    for (std::size_t i = std::max(begin, suite.size()); i < end; ++i) {
      const std::string& f = files[i - suite.size()];
      auto t = read_file(f);
      if (t.name().empty())
        t.set_name(std::filesystem::path(f).stem().string());
      traces.push_back(std::move(t));
    }
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 1;
  }

  addm::core::BatchResult result;
  try {
    BatchExplorer explorer(opt);
    result = explorer.run(traces);
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": exploration failed: " << e.what() << "\n";
    return 1;
  }

  const std::string report = format == "json" ? addm::core::batch_report_json(result)
                                              : addm::core::batch_report_csv(result);
  if (out_path.empty()) {
    std::cout << report;
    std::cout.flush();
    if (!std::cout) {
      std::cerr << argv[0] << ": error writing report to stdout\n";
      return 1;
    }
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << argv[0] << ": cannot open " << out_path << " for writing\n";
      return 1;
    }
    out << report;
    out.flush();
    if (!out) {
      std::cerr << argv[0] << ": error writing report to " << out_path << "\n";
      return 1;
    }
  }

  std::size_t errors = 0;
  for (const auto& e : result.entries)
    if (!e.error.empty()) ++errors;
  if (!quiet) {
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
                   opt.cache_dir.c_str(), result.disk_entries_loaded,
                   result.disk_entries_stored);
      if (opt.cache_budget_bytes != 0)
        std::fprintf(stderr, "cache budget %llu bytes: %zu entries evicted\n",
                     static_cast<unsigned long long>(opt.cache_budget_bytes),
                     result.disk_entries_evicted);
    }
  }
  return errors == 0 ? 0 : 3;
}
