// Shared argument-parsing helpers for the addm command-line tools.
#pragma once

#include <cctype>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "seq/trace.hpp"

namespace addm::tools {

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

}  // namespace addm::tools
