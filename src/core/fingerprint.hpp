// Stable 64-bit fingerprints for memoizing design-space evaluations.
//
// The batch explorer keys both its in-memory memo table and the on-disk
// evaluation cache (core/eval_cache) on (trace fingerprint, options
// fingerprint): two traces with the same geometry and address sequence hash
// identically regardless of their names, and two option sets hash identically
// iff every field that influences explore_generators' output matches
// (technology library parameters included).
//
// The hash is FNV-1a over a canonical little-endian byte stream, so values
// are stable across runs and platforms of equal endianness — stable enough
// to key persistent caches, label report rows, and compare across processes
// and hosts.
//
// Invalidation rule: a result-affecting exploration option is one entry of
// the exploration-option table (core/explore_flags.hpp), whose `hash` feeds
// nothing at the option's default value, so existing caches stay warm across
// upgrades.  Whenever the *semantics* of exploration change without an
// options change (new candidate architecture, metrics fix),
// kOptionsFingerprintSeed MUST be bumped, which makes every previously
// persisted cache entry unreachable rather than stale.  Scheduling-only
// settings (BatchOptions::threads) MUST stay out of the hash.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "core/explorer.hpp"
#include "seq/trace.hpp"

namespace addm::core {

/// Semantic version of the exploration pipeline, mixed into every options
/// fingerprint.  Bump it when exploration output changes for reasons not
/// visible in ExploreOptions; persisted caches keyed on the old value then
/// read as misses instead of returning stale results.
inline constexpr std::uint64_t kOptionsFingerprintSeed = 1;

/// Streaming FNV-1a (64-bit).  Deterministic and stateless beyond the
/// accumulated digest; safe to use from any thread (one instance per
/// hasher).
class Fnv1a64 {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, 8);
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// 16-lowercase-hex-digit rendering of a 64-bit value: the canonical
/// textual form of every fingerprint — report columns, cache entry
/// filenames, and index lines all use it.
inline std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Hash of geometry + linear address sequence. The trace name is excluded on
/// purpose: renamed copies of the same access pattern are cache hits.
/// Deterministic across runs, processes, and hosts of equal endianness.
std::uint64_t trace_fingerprint(const seq::AddressTrace& trace);

/// Hash of kOptionsFingerprintSeed, each exploration-option table entry in
/// table order, and the full technology library (per-cell area/timing
/// parameters).  This is the persistent cache's sole invalidation
/// mechanism: equal fingerprints assert byte-identical exploration output.
std::uint64_t options_fingerprint(const ExploreOptions& opt);

}  // namespace addm::core
