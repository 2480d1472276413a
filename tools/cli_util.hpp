// Shared argument-parsing helpers for the addm command-line tools.
//
// Usage errors print one `<argv0>: <message>` line and exit 2.  The explore
// flags addm_explore and addm_client share (input selection, the
// exploration-option table, output) are parsed by parse_explore_arg alone,
// into the same serve::ExploreRequest the daemon decodes from the wire.
#pragma once

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "core/explore_flags.hpp"
#include "seq/trace.hpp"
#include "seq/workloads.hpp"
#include "serve/protocol.hpp"

namespace addm::tools {

/// Prints `<argv0>: <message>` and exits 2.
[[noreturn]] inline void usage_error(const char* argv0, std::string_view message) {
  std::cerr << argv0 << ": " << message << "\n";
  std::exit(2);
}

/// The value of the flag argv[i], advancing i to it.  A missing value, or
/// an empty one when `nonempty`, is a usage error.
inline const char* need_value(int argc, char** argv, int& i, bool nonempty = false) {
  if (i + 1 >= argc || (nonempty && !*argv[i + 1]))
    usage_error(argv[0], std::string(argv[i]) + " requires a value");
  return argv[++i];
}

/// Strict non-negative integer (seq::parse_u64's grammar) that fits in
/// std::size_t.
inline bool parse_size(const char* s, std::size_t& out) {
  std::uint64_t v = 0;
  if (!seq::parse_u64(s, v) || v > SIZE_MAX) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

/// Upper bound on --threads: far above any real machine, low enough that a
/// typo cannot ask the thread pool for billions of workers.
inline constexpr std::size_t kMaxThreads = 1024;

/// Byte size: digits with an optional binary-suffix k/m/g (case-insensitive),
/// e.g. "16384", "16k", "2M".  Returns false on overflow, a bare suffix, or
/// any other malformed input.
inline bool parse_bytes(const char* s, std::uint64_t& out) {
  std::string_view digits(s);
  std::uint64_t scale = 1;
  if (!digits.empty()) {
    switch (std::tolower(static_cast<unsigned char>(digits.back()))) {
      case 'k': scale = 1ull << 10; break;
      case 'm': scale = 1ull << 20; break;
      case 'g': scale = 1ull << 30; break;
    }
    if (scale != 1) digits.remove_suffix(1);
  }
  std::uint64_t v = 0;
  if (!seq::parse_u64(digits, v) || v > UINT64_MAX / scale) return false;
  out = v * scale;
  return true;
}

/// Slurps a file in binary mode.  Returns false when the file cannot be
/// opened or the read fails partway.
inline bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  if (in.bad()) return false;
  out = os.str();
  return true;
}

/// Upper bound on the --shard count: generous for any real fleet, and low
/// enough that len*count cannot overflow std::size_t in ShardSpec::range.
inline constexpr std::size_t kMaxShards = 4096;

/// "I/N" shard spec with 0 <= I < N and 1 <= N <= kMaxShards, e.g. "0/3".
/// Shard I of N owns the contiguous block [I*len/N, (I+1)*len/N) of the
/// input trace list, so concatenating the per-shard reports in shard order
/// reproduces the unsharded report byte-for-byte (see docs/cache-format.md).
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  /// The half-open range this shard owns out of `n` items.
  std::pair<std::size_t, std::size_t> range(std::size_t n) const {
    return {n * index / count, n * (index + 1) / count};
  }
};

inline bool parse_shard(const char* s, ShardSpec& out) {
  const char* slash = std::strchr(s, '/');
  if (!slash) return false;
  const std::string i(s, slash);
  std::size_t iv = 0, nv = 0;
  if (!parse_size(i.c_str(), iv) || !parse_size(slash + 1, nv)) return false;
  if (nv == 0 || nv > kMaxShards || iv >= nv) return false;
  out.index = iv;
  out.count = nv;
  return true;
}

/// The value of `--suite N`: a positive count of suite geometries.
inline std::size_t suite_value(int argc, char** argv, int& i) {
  std::size_t scales = 0;
  if (!parse_size(need_value(argc, argv, i), scales) || scales == 0)
    usage_error(argv[0], "--suite expects a positive count");
  return scales;
}

/// The value of `--base WxH`.
inline seq::ArrayGeometry base_value(int argc, char** argv, int& i) {
  seq::ArrayGeometry base{};
  if (!seq::parse_geometry(need_value(argc, argv, i), base))
    usage_error(argv[0], "--base expects WxH (e.g. 8x8)");
  return base;
}

/// The value of `--format csv|json`.
inline std::string format_value(int argc, char** argv, int& i) {
  std::string format = need_value(argc, argv, i);
  if (format != "csv" && format != "json")
    usage_error(argv[0], "--format must be csv or json");
  return format;
}

/// A usage error when a suite over `scales` doubling geometries from `base`
/// reaches one over seq::kMaxSuiteCells cells.
inline void require_suite_fits(const char* argv0, seq::ArrayGeometry base,
                               std::size_t scales) {
  if (const auto g = seq::oversized_suite_geometry(base, scales, seq::kMaxSuiteCells))
    usage_error(argv0, "suite geometry " + std::to_string(g->width) + "x" +
                           std::to_string(g->height) + " is too large (at most " +
                           std::to_string(seq::kMaxSuiteCells) + " cells per trace)");
}

/// An exploration as addm_explore and addm_client take it from argv.
struct ExploreArgs {
  serve::ExploreRequest request;
  std::string out_path;  ///< --out; empty = stdout
  bool quiet = false;    ///< --quiet
};

/// If argv[i] is a shared explore flag — --suite, --base, --trace, an
/// exploration-option table flag, --format, --out or --quiet — records it
/// in `args`, leaves i on its last argument and returns true; otherwise
/// returns false.  A table value is checked as it is read, so both tools
/// stop at the same bad flag with the same message.
inline bool parse_explore_arg(int argc, char** argv, int& i, ExploreArgs& args) {
  const std::string_view arg = argv[i];
  serve::ExploreRequest& req = args.request;
  if (arg == "--suite") {
    req.suite_scales = suite_value(argc, argv, i);
  } else if (arg == "--base") {
    req.suite_base = base_value(argc, argv, i);
  } else if (arg == "--trace") {
    serve::TraceSource t;
    t.name = need_value(argc, argv, i);
    req.traces.push_back(std::move(t));
  } else if (const core::ExploreFlag* f = core::explore_flag_arg(arg)) {
    // A table option's empty value is as missing as an absent one.
    const char* value = f->metavar.empty() ? "" : need_value(argc, argv, i, true);
    core::ExploreOptions scratch;
    std::string error;
    if (!core::apply_explore_option(scratch, f->name, value, error))
      usage_error(argv[0], "--" + error);
    req.options.emplace_back(f->name, value);
  } else if (arg == "--format") {
    req.format = format_value(argc, argv, i);
  } else if (arg == "--out") {
    args.out_path = need_value(argc, argv, i);
  } else if (arg == "--quiet") {
    args.quiet = true;
  } else {
    return false;
  }
  return true;
}

/// Writes a report body to `path`, or to stdout when `path` is empty.
/// False, after printing `<argv0>: <error>`, when it cannot be written.
inline bool write_report(const char* argv0, const std::string& path,
                         std::string_view body) {
  if (path.empty()) {
    std::cout << body;
    std::cout.flush();
    if (std::cout) return true;
    std::cerr << argv0 << ": error writing report to stdout\n";
    return false;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << argv0 << ": cannot open " << path << " for writing\n";
    return false;
  }
  out << body;
  out.flush();
  if (out) return true;
  std::cerr << argv0 << ": error writing report to " << path << "\n";
  return false;
}

}  // namespace addm::tools
