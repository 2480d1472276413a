#include "seq/periodicity.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace addm::seq {
namespace {

// One KMP step: fail[i] (the length of the longest proper border of
// s[0..i]) from fail[0..i).
std::size_t next_border(const std::vector<std::uint32_t>& s,
                        const std::vector<std::size_t>& fail, std::size_t i) {
  std::size_t k = fail[i - 1];
  while (k > 0 && s[i] != s[k]) k = fail[k - 1];
  return s[i] == s[k] ? k + 1 : k;
}

std::vector<std::size_t> failure_function(const std::vector<std::uint32_t>& s) {
  std::vector<std::size_t> fail(s.size(), 0);
  for (std::size_t i = 1; i < s.size(); ++i) fail[i] = next_border(s, fail, i);
  return fail;
}

// Smallest period p of the shortest prefix a[0..i] that holds two passes
// of it (2p <= i+1), or 0 if no prefix does.  Grows the failure function
// only as far as that prefix.
std::size_t first_locked_period(const std::vector<std::uint32_t>& a) {
  std::vector<std::size_t> fail(1, 0);
  for (std::size_t i = 1; i < a.size(); ++i) {
    fail.push_back(next_border(a, fail, i));
    const std::size_t p = i + 1 - fail[i];
    if (2 * p <= i + 1) return p;
  }
  return 0;
}

}  // namespace

AddressTrace CompressedTrace::expand() const {
  if (tail > period.size() || (period.empty() && (repeats != 0 || tail != 0)))
    throw std::invalid_argument("malformed compressed trace");
  std::vector<std::uint32_t> linear;
  linear.reserve(length());
  linear.insert(linear.end(), prefix.begin(), prefix.end());
  for (std::size_t r = 0; r < repeats; ++r)
    linear.insert(linear.end(), period.begin(), period.end());
  linear.insert(linear.end(), period.begin(),
                period.begin() + static_cast<std::ptrdiff_t>(tail));
  return AddressTrace(geometry, std::move(linear), name);
}

CompressedTrace compress_periodic(const AddressTrace& trace) {
  const std::vector<std::uint32_t>& a = trace.linear();
  const std::size_t n = a.size();
  CompressedTrace ct;
  ct.geometry = trace.geometry();
  ct.name = trace.name();
  if (n == 0) return ct;

  // Fast path: the first period seen twice covers the whole trace.  Then it
  // is the trace's smallest period (periods never shrink as a sequence
  // grows), and by Fine-Wilf no prefix trim can store less than it.
  std::size_t best_q = 0;
  std::size_t best_p = first_locked_period(a);
  const auto shift = static_cast<std::ptrdiff_t>(best_p);
  if (best_p == 0 || !std::equal(a.begin() + shift, a.end(), a.begin())) {
    // Search every prefix split q for the cheapest exact factorization; the
    // smallest period of the suffix a[q..n) equals the smallest period of
    // the corresponding prefix of the reversed trace (periodicity is
    // reversal-invariant), so one failure-function pass over the reversal
    // prices all splits.  Ties keep the earliest split, so when nothing
    // saves, q == 0 and p == n: the canonical uncompressed form.
    const std::vector<std::uint32_t> rev(a.rbegin(), a.rend());
    const std::vector<std::size_t> fail_rev = failure_function(rev);
    best_p = n - fail_rev[n - 1];  // q == 0: global smallest period
    for (std::size_t q = 1; q < n; ++q) {
      const std::size_t m = n - q;
      const std::size_t p = m - fail_rev[m - 1];
      if (q + p < best_q + best_p) {
        best_q = q;
        best_p = p;
      }
    }
  }
  const auto q = a.begin() + static_cast<std::ptrdiff_t>(best_q);
  ct.prefix.assign(a.begin(), q);
  ct.period.assign(q, q + static_cast<std::ptrdiff_t>(best_p));
  ct.repeats = (n - best_q) / best_p;
  ct.tail = (n - best_q) % best_p;
  return ct;
}

namespace {

// Verifies vals[i] == vals[0] + d1*i over one counted dimension, or
// vals[o*inner + j] == vals[0] + d1*o + d2*j over two.  Coefficients are
// forced by the first elements, so recovery is a pure check.
bool affine1(const std::vector<long>& vals, long& offset, long& d) {
  offset = vals[0];
  d = vals.size() > 1 ? vals[1] - vals[0] : 0;
  for (std::size_t i = 0; i < vals.size(); ++i)
    if (vals[i] != offset + d * static_cast<long>(i)) return false;
  return true;
}

bool affine2(const std::vector<long>& vals, std::size_t inner, long& offset,
             long& d_outer, long& d_inner) {
  offset = vals[0];
  d_inner = inner > 1 ? vals[1] - vals[0] : 0;
  d_outer = vals[inner] - vals[0];
  const std::size_t outer = vals.size() / inner;
  for (std::size_t o = 0; o < outer; ++o)
    for (std::size_t j = 0; j < inner; ++j)
      if (vals[o * inner + j] !=
          offset + d_outer * static_cast<long>(o) + d_inner * static_cast<long>(j))
        return false;
  return true;
}

}  // namespace

std::optional<RecoveredNest> recover_loop_nest(const CompressedTrace& ct) {
  if (!ct.pure() || ct.period.empty() || ct.repeats == 0) return std::nullopt;
  const std::size_t n = ct.period.size();
  std::vector<long> rows(n), cols(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows[i] = static_cast<long>(ct.period[i] / ct.geometry.width);
    cols[i] = static_cast<long>(ct.period[i] % ct.geometry.width);
  }

  RecoveredNest out;
  const bool multi_pass = ct.repeats >= 2;
  if (multi_pass) {
    out.nest.add("pass", 0, static_cast<long>(ct.repeats));
    out.access.row_coeffs.push_back(0);
    out.access.col_coeffs.push_back(0);
  }

  long r0 = 0, c0 = 0, dr = 0, dc = 0;
  if (affine1(rows, r0, dr) && affine1(cols, c0, dc)) {
    out.nest.add("i", 0, static_cast<long>(n));
    out.access.row_coeffs.push_back(dr);
    out.access.col_coeffs.push_back(dc);
    out.access.row_offset = r0;
    out.access.col_offset = c0;
    return out;
  }

  // Two-level: split the period into outer x inner with both dimensions
  // affine.  Largest inner (most raster-like) divisor wins; the order is
  // fixed so recovery is deterministic.
  for (std::size_t inner = n / 2; inner >= 2; --inner) {
    if (n % inner != 0) continue;
    long dro = 0, drj = 0, dco = 0, dcj = 0;
    if (!affine2(rows, inner, r0, dro, drj)) continue;
    if (!affine2(cols, inner, c0, dco, dcj)) continue;
    out.nest.add("o", 0, static_cast<long>(n / inner));
    out.nest.add("j", 0, static_cast<long>(inner));
    out.access.row_coeffs.push_back(dro);
    out.access.row_coeffs.push_back(drj);
    out.access.col_coeffs.push_back(dco);
    out.access.col_coeffs.push_back(dcj);
    out.access.row_offset = r0;
    out.access.col_offset = c0;
    return out;
  }
  return std::nullopt;
}

}  // namespace addm::seq
