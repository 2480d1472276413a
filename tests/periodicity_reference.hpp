// Test-only brute-force reference for seq::compress_periodic
// (seq/periodicity.hpp).
//
// The specification, spelled out as plainly as possible: try every split q
// of the trace, take the naive smallest period p of the suffix a[q..n), and
// keep the split with the smallest stored size q + p (the earliest q on a
// tie).  When even the best split stores the whole trace (q + p == n) the
// result is the canonical uncompressed form (repeats == 1, empty prefix,
// zero tail); an empty trace has repeats == 0.  The library's
// failure-function implementation is differential-tested against it
// (periodicity_test, tests/fuzz/trace_grammar_fuzz).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "seq/periodicity.hpp"
#include "seq/trace.hpp"

namespace addm::seq::reference {

/// True when a[q..n) has period p: every element equals the one p later.
inline bool has_period(const std::vector<std::uint32_t>& a, std::size_t q,
                       std::size_t p) {
  for (std::size_t i = q; i + p < a.size(); ++i)
    if (a[i] != a[i + p]) return false;
  return true;
}

inline CompressedTrace compress_periodic(const AddressTrace& trace) {
  const std::vector<std::uint32_t>& a = trace.linear();
  const std::size_t n = a.size();
  CompressedTrace ct;
  ct.geometry = trace.geometry();
  ct.name = trace.name();
  if (n == 0) return ct;

  // smallest[q]: the naive smallest period of a[q..n).  Every period of
  // a[q..n) is also one of a[q+1..n), so smallest[] never decreases as q
  // moves left and each scan resumes where the previous one stopped (this
  // keeps the reference quadratic rather than cubic, nothing more).
  std::vector<std::size_t> smallest(n);
  std::size_t p = 1;
  for (std::size_t q = n; q-- > 0;) {
    while (!has_period(a, q, p)) ++p;
    smallest[q] = p;
  }

  std::size_t best_q = 0;
  for (std::size_t q = 1; q < n; ++q)
    if (q + smallest[q] < best_q + smallest[best_q]) best_q = q;
  const std::size_t best_p = smallest[best_q];
  if (best_q + best_p == n) {
    ct.period = a;
    ct.repeats = 1;
    return ct;
  }
  ct.prefix.assign(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(best_q));
  ct.period.assign(a.begin() + static_cast<std::ptrdiff_t>(best_q),
                   a.begin() + static_cast<std::ptrdiff_t>(best_q + best_p));
  ct.repeats = (n - best_q) / best_p;
  ct.tail = (n - best_q) % best_p;
  return ct;
}

/// Field-by-field equality of two factorizations (CompressedTrace has no
/// operator==).
inline bool same_factorization(const CompressedTrace& x, const CompressedTrace& y) {
  return x.geometry == y.geometry && x.name == y.name && x.prefix == y.prefix &&
         x.period == y.period && x.repeats == y.repeats && x.tail == y.tail;
}

}  // namespace addm::seq::reference
