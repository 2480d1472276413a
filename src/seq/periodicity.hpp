// Exact periodicity compression for address traces.
//
// Real recorded traces come from loop nests (Figure 7), so they are
// overwhelmingly periodic: a short warm-up prefix followed by many passes of
// one period.  This module factors a trace into
//
//     prefix + repeats x period + suffix
//
// where the suffix is a partial pass (the first `tail` elements of the
// period), and the factorization is *exact*: expand() reproduces the input
// byte for byte, always — compression is lossless structure recovery, never
// approximation.  Exploration layers that understand the factorization
// (core/explorer's ExploreOptions::compress_periodic) can then evaluate one
// period instead of the whole trace, making cost scale with the period
// rather than the trace length.
//
// Two entry points share one implementation:
//  * compress_periodic(trace)  — batch, for materialized traces;
//  * StreamingCompressor       — push() one address (or push_span() a run
//    of addresses) at a time.  Once a
//    period has been observed twice it holds only the period (O(period)
//    memory) and verifies subsequent addresses against it in O(1); an
//    aperiodic stream degrades to buffering everything, which is the
//    information-theoretic floor for exact compression.
//
// When the period is an affine loop-nest enumeration, recover_loop_nest
// reconstructs the seq::LoopNest + AffineAccess formulation (one or two
// counted loops, plus an outer pass loop), re-deriving the declarative
// program a raw recorded stream came from.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "seq/loopnest.hpp"
#include "seq/trace.hpp"

namespace addm::seq {

/// Exact factorization prefix + repeats x period + suffix of an address
/// sequence.  The suffix is not stored: it is the first `tail` elements of
/// `period` (tail < period.size() whenever period is non-empty).  An
/// incompressible trace is represented canonically as repeats == 1 with an
/// empty prefix and zero tail; an empty trace has repeats == 0.
struct CompressedTrace {
  ArrayGeometry geometry;
  std::string name;
  std::vector<std::uint32_t> prefix;
  std::vector<std::uint32_t> period;
  std::size_t repeats = 0;  ///< full passes over `period`
  std::size_t tail = 0;     ///< length of the partial final pass

  /// Length of the trace this factorization expands to.
  std::size_t length() const {
    return prefix.size() + repeats * period.size() + tail;
  }
  /// Elements actually stored — the compression cost.
  std::size_t stored() const { return prefix.size() + period.size(); }
  /// True when the whole trace is whole passes of the period (no prefix, no
  /// partial tail) — the only shape a cyclic generator reproduces exactly.
  bool pure() const { return prefix.empty() && tail == 0; }
  /// True when the factorization actually saves anything.
  bool compressed() const { return repeats >= 2; }
  /// The partial final pass, materialized (first `tail` period elements).
  std::vector<std::uint32_t> suffix() const {
    return {period.begin(), period.begin() + static_cast<std::ptrdiff_t>(tail)};
  }

  /// Exact reconstruction of the original trace (geometry and name
  /// included).  expand() of compress_periodic(t) equals t for every t —
  /// the property tests enforce this byte for byte.
  AddressTrace expand() const;
};

/// Online exact compressor.  Feed addresses with push(), then finish().
///
/// Internally this is an incremental smallest-period computation (KMP
/// failure function): while the stream is still aperiodic the whole prefix
/// is buffered ("growing" mode); as soon as the smallest period p of the
/// data seen so far has been observed at least twice, the buffer shrinks to
/// one period ("locked" mode, O(p) memory) and each further address costs
/// one comparison.  A mismatch while locked falls back to growing mode by
/// re-expanding the (exactly known) prefix — correctness is never at risk,
/// only memory.  finish() additionally searches for the cheapest
/// prefix-trimmed factorization when the stream never locked, so warm-up
/// accesses ahead of a periodic kernel do not defeat compression.
class StreamingCompressor {
 public:
  void push(std::uint32_t addr);
  /// Same result as push() on each of a[0..n).  While locked, whole runs
  /// are compared against the period with a running phase, and the first
  /// mismatch goes through push().
  void push_span(const std::uint32_t* a, std::size_t n);
  /// Addresses pushed so far.
  std::size_t count() const { return count_; }
  /// Elements currently buffered — O(period) in locked mode; the memory
  /// claim the tests pin.
  std::size_t buffered() const { return buf_.size(); }
  /// True once the compressor holds only one period.
  bool locked() const { return locked_; }

  /// Produces the factorization of everything pushed so far.  The
  /// compressor is left in a valid state (more pushes may follow, and a
  /// later finish() reflects them).
  CompressedTrace finish(ArrayGeometry geometry, std::string name = {}) const;

 private:
  std::vector<std::uint32_t> buf_;   ///< growing: whole prefix; locked: one period
  std::vector<std::size_t> fail_;    ///< KMP failure function (growing mode only)
  std::size_t count_ = 0;
  bool locked_ = false;

  void relock_if_profitable();
};

/// Batch factorization: feeds `trace` through a StreamingCompressor.  Exact
/// for every input; O(length) time, O(length) transient memory.
CompressedTrace compress_periodic(const AddressTrace& trace);

/// A period re-expressed as counted loops + affine row/column access.
struct RecoveredNest {
  LoopNest nest;
  AffineAccess access;
};

/// Attempts to express a *pure* factorization (ct.pure()) as a loop nest:
/// one or two counted loops enumerating the period — rows and columns must
/// both be affine in the induction variables — wrapped in an outer pass
/// loop when repeats >= 2.  On success, nest.trace(access, ct.geometry)
/// equals ct.expand() exactly (property-tested).  Returns nullopt for
/// impure factorizations, empty traces, and periods with no affine
/// 1- or 2-level decomposition.
std::optional<RecoveredNest> recover_loop_nest(const CompressedTrace& ct);

}  // namespace addm::seq
