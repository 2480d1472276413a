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
// compress_periodic finds the factorization that stores the fewest elements
// (prefix + one period), preferring the shortest prefix on ties.  Loop-nest
// traces take a fast path: the first period seen twice is checked against
// the whole trace in one pass.  Anything else prices every prefix split with
// one failure-function pass over the reversed trace, and falls back to the
// canonical uncompressed form when nothing saves.
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

/// Batch factorization over trace.linear(): the cheapest exact
/// prefix + repeats x period + suffix (ties keep the shortest prefix).
/// Exact for every input; O(length) time and transient memory.
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
