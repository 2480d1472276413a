#include "logic/cube.hpp"

#include <bit>

namespace addm::logic {

int Cube::num_literals() const { return std::popcount(mask); }

bool Cube::contains(const Cube& other) const {
  // *this contains other iff this's literals are a subset of other's and agree
  // in polarity.
  if ((mask & other.mask) != mask) return false;
  return (polarity & mask) == (other.polarity & mask);
}

std::string Cube::to_string() const {
  if (mask == 0) return "1";
  std::string s;
  for (int k = 23; k >= 0; --k) {
    if (!(mask & (1u << k))) continue;
    if (!s.empty()) s += "·";
    s += 'x';
    s += std::to_string(k);
    if (!(polarity & (1u << k))) s += "'";
  }
  return s;
}

int Cover::num_literals() const {
  int n = 0;
  for (const Cube& c : cubes) n += c.num_literals();
  return n;
}

TruthTable Cover::to_truth_table(int num_vars) const {
  TruthTable f(num_vars);
  for (const Cube& c : cubes) {
    TruthTable t = TruthTable::ones(num_vars);
    for (int k = 0; k < num_vars; ++k) {
      if (!(c.mask & (1u << k))) continue;
      const TruthTable v = TruthTable::var(num_vars, k);
      t = (c.polarity & (1u << k)) ? (t & v) : t.diff(v);
    }
    f = f | t;
  }
  return f;
}

bool Cover::evaluate(std::uint64_t minterm) const {
  for (const Cube& c : cubes)
    if (c.covers(minterm)) return true;
  return false;
}

std::string Cover::to_string() const {
  if (cubes.empty()) return "0";
  std::string s;
  for (const Cube& c : cubes) {
    if (!s.empty()) s += " + ";
    s += c.to_string();
  }
  return s;
}

}  // namespace addm::logic
