#include "seq/periodicity.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace addm::seq {
namespace {

// KMP failure function: fail[i] = length of the longest proper border of
// s[0..i].  Shared by the batch rebuild (after an unlock) and the reversed
// prefix-trim scan in finish().
std::vector<std::size_t> failure_function(const std::vector<std::uint32_t>& s) {
  std::vector<std::size_t> fail(s.size(), 0);
  for (std::size_t i = 1; i < s.size(); ++i) {
    std::size_t k = fail[i - 1];
    while (k > 0 && s[i] != s[k]) k = fail[k - 1];
    if (s[i] == s[k]) ++k;
    fail[i] = k;
  }
  return fail;
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

void StreamingCompressor::push(std::uint32_t addr) {
  if (locked_) {
    const std::size_t p = buf_.size();
    if (buf_[count_ % p] == addr) {
      ++count_;
      return;
    }
    // Period broken: the stream so far is exactly known (cyclic expansion of
    // the locked period), so rebuild the growing-mode state and continue.
    std::vector<std::uint32_t> full;
    full.reserve(count_ + 1);
    for (std::size_t i = 0; i < count_; ++i) full.push_back(buf_[i % p]);
    buf_ = std::move(full);
    fail_ = failure_function(buf_);
    locked_ = false;
  }
  buf_.push_back(addr);
  ++count_;
  const std::size_t i = buf_.size() - 1;
  if (i == 0) {
    fail_.push_back(0);
  } else {
    std::size_t k = fail_[i - 1];
    while (k > 0 && buf_[i] != buf_[k]) k = fail_[k - 1];
    if (buf_[i] == buf_[k]) ++k;
    fail_.push_back(k);
  }
  relock_if_profitable();
}

void StreamingCompressor::push_span(const std::uint32_t* a, std::size_t n) {
  const std::uint32_t* const end = a + n;
  while (a != end) {
    if (locked_) {
      const std::uint32_t* period = buf_.data();
      const std::size_t p = buf_.size();
      std::size_t phase = count_ % p;
      const std::uint32_t* const run = a;
      for (;;) {
        const std::size_t len = std::min(p - phase, static_cast<std::size_t>(end - a));
        const std::uint32_t* const stop = std::mismatch(a, a + len, period + phase).first;
        const bool matched = stop == a + len;
        a = stop;
        if (!matched || a == end) break;
        phase = 0;
      }
      count_ += static_cast<std::size_t>(a - run);
      if (a == end) return;
    }
    push(*a++);
  }
}

void StreamingCompressor::relock_if_profitable() {
  const std::size_t n = buf_.size();
  if (n == 0) return;
  const std::size_t p = n - fail_[n - 1];
  // Lock once the smallest period has been observed at least twice: from
  // here on, only the period is kept and the smallest period of any
  // consistent extension is provably still p (periods are monotone
  // non-decreasing under extension and p keeps matching).
  if (2 * p <= n) {
    buf_.resize(p);
    buf_.shrink_to_fit();
    fail_.clear();
    fail_.shrink_to_fit();
    locked_ = true;
  }
}

CompressedTrace StreamingCompressor::finish(ArrayGeometry geometry,
                                            std::string name) const {
  CompressedTrace ct;
  ct.geometry = geometry;
  ct.name = std::move(name);
  if (count_ == 0) return ct;

  if (locked_) {
    const std::size_t p = buf_.size();
    ct.period = buf_;
    ct.repeats = count_ / p;
    ct.tail = count_ % p;
    return ct;
  }

  // Growing mode: the whole stream is buffered.  Search every prefix split
  // q for the cheapest exact factorization; the smallest period of the
  // suffix s[q..n) equals the smallest period of the corresponding prefix
  // of the reversed stream (periodicity is reversal-invariant), so one
  // failure-function pass over the reversal prices all splits.
  const std::size_t n = buf_.size();
  std::vector<std::uint32_t> rev(buf_.rbegin(), buf_.rend());
  const std::vector<std::size_t> fail_rev = failure_function(rev);
  std::size_t best_q = 0;
  std::size_t best_p = n - fail_rev[n - 1];  // q == 0: global smallest period
  for (std::size_t q = 1; q < n; ++q) {
    const std::size_t m = n - q;
    const std::size_t p = m - fail_rev[m - 1];
    if (q + p < best_q + best_p) {
      best_q = q;
      best_p = p;
    }
  }
  if (best_q + best_p == n) {
    // No savings anywhere: canonical uncompressed form.
    ct.period = buf_;
    ct.repeats = 1;
    ct.tail = 0;
    return ct;
  }
  ct.prefix.assign(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(best_q));
  ct.period.assign(buf_.begin() + static_cast<std::ptrdiff_t>(best_q),
                   buf_.begin() + static_cast<std::ptrdiff_t>(best_q + best_p));
  ct.repeats = (n - best_q) / best_p;
  ct.tail = (n - best_q) % best_p;
  return ct;
}

CompressedTrace compress_periodic(const AddressTrace& trace) {
  StreamingCompressor sc;
  sc.push_span(trace.linear().data(), trace.linear().size());
  return sc.finish(trace.geometry(), trace.name());
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
