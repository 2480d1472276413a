// addm_merge — merges sharded addm_explore outputs back into one artifact.
//
// Two independent jobs, either or both per invocation:
//  * Report merge: given the per-shard reports in shard order (shard 0
//    first), emits one report byte-identical to what the unsharded
//    addm_explore run would have produced.  Works for both report formats;
//    the inputs must all be the same format as --format.
//  * Cache merge: --cache-into DST --cache SRC (repeatable) folds every
//    valid evaluation-cache entry of the sources into DST and canonicalizes
//    the result (the same rewrite addm_cache compact performs), so per-shard
//    cache directories collapse into one warm, already-compacted cache and
//    merge order cannot influence the output bytes.
//
// The byte-identical guarantee holds because addm_explore shards the input
// list into contiguous blocks, report rows carry no shard- or
// schedule-dependent data, and the JSON summary contains only the trace
// count (see docs/cache-format.md for the contract).
//
// Exit status: 0 on success, 1 on I/O errors or malformed inputs, 2 on
// usage errors.
#include <cstddef>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "core/eval_cache.hpp"

namespace {

using addm::tools::need_value;
using addm::tools::usage_error;
using addm::tools::read_file;

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options] [REPORT...]\n"
      << "\n"
      << "Merges per-shard addm_explore reports (given in shard order) and/or\n"
      << "per-shard evaluation-cache directories.\n"
      << "\n"
      << "report merge:\n"
      << "  REPORT...            per-shard report files, shard 0 first\n"
      << "  --format csv|json    format of the inputs and output (default csv)\n"
      << "  --out FILE           write merged report to FILE (default stdout)\n"
      << "\n"
      << "cache merge:\n"
      << "  --cache-into DIR     destination cache directory\n"
      << "  --cache DIR          source cache directory (repeatable)\n"
      << "\n"
      << "other:\n"
      << "  --quiet              suppress the stderr summary\n";
}

/// Merged CSV = first file's header + every file's rows, in argument order.
/// Fails unless every input starts with the same header line.
bool merge_csv(const std::vector<std::string>& texts, std::string& out,
               std::string& error) {
  std::string header;
  std::string body;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    const std::string& text = texts[i];
    const std::size_t nl = text.find('\n');
    if (nl == std::string::npos) {
      error = "report " + std::to_string(i) + " has no header line";
      return false;
    }
    const std::string h = text.substr(0, nl + 1);
    if (i == 0)
      header = h;
    else if (h != header) {
      error = "report " + std::to_string(i) + " header differs from report 0";
      return false;
    }
    body += text.substr(nl + 1);
  }
  out = header + body;
  return true;
}

/// Extracts the per-shard pieces of a batch_report_json document: the
/// summary trace count and the raw text of the trace-entry list.  Relies on
/// the report's fixed serialization (deterministic field order, 4-space
/// entry indentation), which is part of its documented format.
bool split_json(const std::string& text, std::size_t index, std::size_t& traces,
                std::string& chunk, std::string& error) {
  const std::string summary_open = "\"summary\": {\"traces\": ";
  const std::size_t s = text.find(summary_open);
  const std::size_t s_end = s == std::string::npos
                                ? std::string::npos
                                : text.find('}', s + summary_open.size());
  const std::string list_open = "\n  \"traces\": [\n";
  const std::size_t l = text.find(list_open);
  const std::string suffix = "  ]\n}\n";
  if (s == std::string::npos || s_end == std::string::npos ||
      l == std::string::npos || text.size() < l + list_open.size() + suffix.size() ||
      text.compare(text.size() - suffix.size(), suffix.size(), suffix) != 0) {
    error = "report " + std::to_string(index) + " is not an addm_explore JSON report";
    return false;
  }
  const std::string count =
      text.substr(s + summary_open.size(), s_end - s - summary_open.size());
  traces = 0;
  for (char c : count) {
    if (c < '0' || c > '9') {
      error = "report " + std::to_string(index) + " has a malformed summary";
      return false;
    }
    traces = traces * 10 + static_cast<std::size_t>(c - '0');
  }
  chunk = text.substr(l + list_open.size(),
                      text.size() - suffix.size() - l - list_open.size());
  if (!chunk.empty() &&
      (chunk.size() < 6 || chunk.compare(chunk.size() - 6, 6, "    }\n") != 0)) {
    error = "report " + std::to_string(index) + " has an unexpected entry layout";
    return false;
  }
  return true;
}

bool merge_json(const std::vector<std::string>& texts, std::string& out,
                std::string& error) {
  std::size_t total = 0;
  std::vector<std::string> chunks;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    std::size_t traces = 0;
    std::string chunk;
    if (!split_json(texts[i], i, traces, chunk, error)) return false;
    total += traces;
    if (!chunk.empty()) chunks.push_back(std::move(chunk));
  }
  std::ostringstream os;
  os << "{\n";
  os << "  \"summary\": {\"traces\": " << total << "},\n";
  os << "  \"traces\": [\n";
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    std::string& chunk = chunks[i];
    // Every chunk ends with its last entry's unterminated "    }\n"; all but
    // the final chunk need the "," separator the unsharded report would have.
    if (i + 1 < chunks.size()) chunk = chunk.substr(0, chunk.size() - 1) + ",\n";
    os << chunk;
  }
  os << "  ]\n";
  os << "}\n";
  out = os.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> reports;
  std::string format = "csv";
  std::string out_path;
  std::string cache_into;
  std::vector<std::string> cache_srcs;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--format") {
      format = addm::tools::format_value(argc, argv, i);
    } else if (arg == "--out") {
      out_path = need_value(argc, argv, i);
    } else if (arg == "--cache-into") {
      cache_into = need_value(argc, argv, i);
    } else if (arg == "--cache") {
      cache_srcs.push_back(need_value(argc, argv, i));
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << argv[0] << ": unknown option '" << arg << "'\n";
      usage(argv[0]);
      return 2;
    } else {
      reports.push_back(arg);
    }
  }

  if (reports.empty() && (cache_into.empty() || cache_srcs.empty())) {
    std::cerr << argv[0]
              << ": nothing to merge (give REPORT files and/or --cache-into with "
                 "--cache)\n";
    usage(argv[0]);
    return 2;
  }
  if (cache_into.empty() != cache_srcs.empty())
    usage_error(argv[0], "--cache-into and --cache must be used together");

  if (!reports.empty()) {
    std::vector<std::string> texts(reports.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (!read_file(reports[i], texts[i])) {
        std::cerr << argv[0] << ": cannot read " << reports[i] << "\n";
        return 1;
      }
    }
    std::string merged;
    std::string error;
    const bool ok = format == "json" ? merge_json(texts, merged, error)
                                     : merge_csv(texts, merged, error);
    if (!ok) {
      std::cerr << argv[0] << ": " << error << "\n";
      return 1;
    }
    if (!addm::tools::write_report(argv[0], out_path, merged)) return 1;
    if (!quiet)
      std::fprintf(stderr, "merged %zu reports\n", reports.size());
  }

  if (!cache_into.empty()) {
    std::size_t copied = 0;
    std::size_t failed = 0;
    for (const std::string& src : cache_srcs) {
      const auto stats = addm::core::EvalCacheDir::merge(cache_into, src);
      copied += stats.copied;
      failed += stats.failed;
    }
    if (!quiet)
      std::fprintf(stderr, "merged %zu cache dirs into %s (%zu entries copied)\n",
                   cache_srcs.size(), cache_into.c_str(), copied);
    if (failed != 0) {
      std::cerr << argv[0] << ": failed to write " << failed << " entries into "
                << cache_into << "\n";
      return 1;
    }
  }

  return 0;
}
