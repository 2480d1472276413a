// addm_cache — maintenance CLI for persistent evaluation-cache directories.
//
// Subcommands (all take the cache directory as their positional argument):
//   stats DIR             index/payload statistics; --json emits a fixed-order
//                         JSON object (golden-checked in CI)
//   verify-checksums DIR  full checksum validation of every indexed payload
//                         plus an orphan/stale-file scan; read-only
//   compact DIR           rewrite the directory into canonical form: drop
//                         dead and corrupt entries, fold duplicate records,
//                         re-adopt valid orphans, atomically replace the
//                         index, delete unreferenced files
//   prune DIR             compact plus budget enforcement (--max-entries /
//                         --max-bytes), evicting in the deterministic
//                         priority order documented in docs/cache-format.md
//
// compact and prune assume no concurrent writer on DIR (see the maintenance
// contract in core/eval_cache.hpp); stats and verify-checksums are safe any
// time.
//
// Exit status: 0 = success and (for verify-checksums) a clean directory,
// 1 = damage found or a maintenance/IO failure, 2 = usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "cli_util.hpp"
#include "core/eval_cache.hpp"

namespace {

using addm::core::EvalCacheDir;
using addm::tools::need_value;
using addm::tools::parse_bytes;
using addm::tools::parse_size;

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " COMMAND DIR [options]\n"
      << "\n"
      << "commands:\n"
      << "  stats DIR            cache directory statistics\n"
      << "  verify-checksums DIR validate every indexed payload checksum\n"
      << "  compact DIR          rewrite DIR into canonical form\n"
      << "  prune DIR            compact plus entry/byte budget enforcement\n"
      << "\n"
      << "options:\n"
      << "  --json               (stats) emit a JSON object instead of text\n"
      << "  --max-entries N      (prune) keep at most N entries\n"
      << "  --max-bytes B        (prune) keep at most B payload bytes\n"
      << "                       (suffix k/m/g; at least one budget required)\n"
      << "  --quiet              suppress the stderr summary\n"
      << "  --help               this message\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string command;
  std::string dir;
  bool json = false;
  bool quiet = false;
  bool have_max_entries = false;
  bool have_max_bytes = false;
  std::uint64_t max_entries = UINT64_MAX;
  std::uint64_t max_bytes = UINT64_MAX;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--max-entries") {
      std::size_t v = 0;
      if (!parse_size(need_value(argc, argv, i), v)) {
        std::cerr << argv[0] << ": --max-entries expects a non-negative number\n";
        return 2;
      }
      max_entries = v;
      have_max_entries = true;
    } else if (arg == "--max-bytes") {
      if (!parse_bytes(need_value(argc, argv, i), max_bytes)) {
        std::cerr << argv[0]
                  << ": --max-bytes expects a byte size (suffix k/m/g)\n";
        return 2;
      }
      have_max_bytes = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << argv[0] << ": unknown option '" << arg << "'\n";
      usage(argv[0]);
      return 2;
    } else if (command.empty()) {
      command = arg;
    } else if (dir.empty()) {
      dir = arg;
    } else {
      std::cerr << argv[0] << ": unexpected argument '" << arg << "'\n";
      usage(argv[0]);
      return 2;
    }
  }

  if (command.empty() || dir.empty()) {
    std::cerr << argv[0] << ": expected a command and a cache directory\n";
    usage(argv[0]);
    return 2;
  }
  if (json && command != "stats") {
    std::cerr << argv[0] << ": --json only applies to stats\n";
    return 2;
  }
  if ((have_max_entries || have_max_bytes) && command != "prune") {
    std::cerr << argv[0] << ": --max-entries/--max-bytes only apply to prune\n";
    return 2;
  }

  EvalCacheDir cache(dir);

  if (command == "stats") {
    const EvalCacheDir::DirStats s = cache.stats();
    if (json) {
      std::cout << addm::core::eval_cache_stats_json(s);
      std::cout.flush();
      return std::cout ? 0 : 1;
    }
    std::printf("index version:    %d\n", s.index_version);
    std::printf("entries:          %zu\n", s.entries);
    std::printf("payload files:    %zu\n", s.payload_files);
    std::printf("missing payloads: %zu\n", s.missing_payloads);
    std::printf("orphan payloads:  %zu\n", s.orphan_payloads);
    std::printf("stale files:      %zu\n", s.stale_files);
    std::printf("index damage:     %zu\n", s.index_damage);
    std::printf("recorded bytes:   %llu\n",
                static_cast<unsigned long long>(s.recorded_bytes));
    std::printf("payload bytes:    %llu\n",
                static_cast<unsigned long long>(s.payload_bytes));
    std::printf("hits:             %llu\n", static_cast<unsigned long long>(s.hits));
    std::printf("max generation:   %llu\n",
                static_cast<unsigned long long>(s.max_generation));
    return 0;
  }

  if (command == "verify-checksums") {
    const EvalCacheDir::VerifyStats v = cache.verify();
    if (!quiet)
      std::fprintf(stderr,
                   "%s: %zu valid, %zu missing, %zu corrupt, %zu orphans, "
                   "%zu orphan-corrupt, %zu stale files, %zu damaged index lines\n",
                   dir.c_str(), v.valid, v.missing, v.corrupt, v.orphans,
                   v.orphan_corrupt, v.stale_files, v.index_damage);
    return v.clean() ? 0 : 1;
  }

  if (command == "compact" || command == "prune") {
    if (command == "prune" && !have_max_entries && !have_max_bytes) {
      std::cerr << argv[0]
                << ": prune requires --max-entries and/or --max-bytes\n";
      return 2;
    }
    const EvalCacheDir::MaintenanceStats m =
        command == "compact" ? cache.compact() : cache.prune(max_entries, max_bytes);
    if (!quiet)
      std::fprintf(stderr,
                   "%s: %zu kept (%llu bytes), %zu dropped, %zu adopted, "
                   "%zu evicted, %zu files removed\n",
                   dir.c_str(), m.kept,
                   static_cast<unsigned long long>(m.bytes_kept), m.dropped,
                   m.adopted, m.evicted, m.files_removed);
    if (!m.ok)
      std::cerr << argv[0] << ": maintenance failed on " << dir
                << " (future-version index, unwritable directory, or index "
                   "rewrite failure)\n";
    return m.ok ? 0 : 1;
  }

  std::cerr << argv[0] << ": unknown command '" << command << "'\n";
  usage(argv[0]);
  return 2;
}
