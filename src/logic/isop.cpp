#include "logic/isop.hpp"

#include <stdexcept>

namespace addm::logic {

namespace {

// Recursive Minato-Morreale. Returns a cover C with L <= C <= U and, through
// `value_out`, the truth table of C (needed by the caller's remainder step).
// Neither bound depends on x_below or any variable above it, so the split
// variable is searched below `below` only.
Cover isop_rec(const TruthTable& L, const TruthTable& U, int below,
               TruthTable& value_out) {
  const int n = L.num_vars();
  if (L.is_zero()) {
    value_out = TruthTable::zeros(n);
    return {};
  }
  // Split on the top variable either bound depends on.
  int v = L.top_var(below);
  const int uv = U.top_var(below);
  if (uv > v) v = uv;
  if (v < 0) {
    // L is a nonzero constant => L = 1, and since L <= U, U = 1.
    value_out = TruthTable::ones(n);
    return Cover{{Cube::universe()}};
  }

  const TruthTable L0 = L.cofactor(v, false), L1 = L.cofactor(v, true);
  const TruthTable U0 = U.cofactor(v, false), U1 = U.cofactor(v, true);

  // Minterms of L0 not coverable by a cube valid in both halves need x_v'.
  // Every child bound is built from cofactors on x_v (and from child covers,
  // which split below v), so it depends on variables below v only.
  TruthTable val0(n), val1(n), vald(n);
  Cover c0 = isop_rec(L0.diff(U1), U0, v, val0);
  Cover c1 = isop_rec(L1.diff(U0), U1, v, val1);

  // Remainder must be covered by cubes independent of x_v.
  const TruthTable Ld = L0.diff(val0) | L1.diff(val1);
  Cover cd = isop_rec(Ld, U0 & U1, v, vald);

  const TruthTable xv = TruthTable::var(n, v);
  value_out = (val0.diff(xv)) | (val1 & xv) | vald;

  Cover result;
  result.cubes.reserve(c0.cubes.size() + c1.cubes.size() + cd.cubes.size());
  for (Cube c : c0.cubes) {
    c.mask |= 1u << v;  // add literal x_v'
    c.polarity &= ~(1u << v);
    result.cubes.push_back(c);
  }
  for (Cube c : c1.cubes) {
    c.mask |= 1u << v;  // add literal x_v
    c.polarity |= 1u << v;
    result.cubes.push_back(c);
  }
  for (const Cube& c : cd.cubes) result.cubes.push_back(c);
  return result;
}

}  // namespace

Cover isop(const TruthTable& onset_lower, const TruthTable& onset_upper) {
  if (onset_lower.num_vars() != onset_upper.num_vars())
    throw std::invalid_argument("isop: mismatched variable counts");
  if (!onset_lower.implies(onset_upper))
    throw std::invalid_argument("isop: lower bound not contained in upper bound");
  TruthTable value(onset_lower.num_vars());
  return isop_rec(onset_lower, onset_upper, onset_lower.num_vars(), value);
}

Cover isop(const TruthTable& f) { return isop(f, f); }

bool is_irredundant(const Cover& c, const TruthTable& onset_lower, int num_vars) {
  for (std::size_t drop = 0; drop < c.cubes.size(); ++drop) {
    Cover reduced;
    for (std::size_t i = 0; i < c.cubes.size(); ++i)
      if (i != drop) reduced.cubes.push_back(c.cubes[i]);
    if (onset_lower.implies(reduced.to_truth_table(num_vars))) return false;
  }
  return true;
}

}  // namespace addm::logic
