#include "logic/truth_table.hpp"

#include <bit>
#include <stdexcept>

namespace addm::logic {

namespace {
constexpr std::uint64_t kVarMask[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull,
};

std::size_t words_for(int num_vars) {
  return num_vars <= 6 ? 1 : (std::size_t{1} << (num_vars - 6));
}
}  // namespace

TruthTable::TruthTable(int num_vars) : num_vars_(num_vars) {
  if (num_vars < 0 || num_vars > 24)
    throw std::invalid_argument("TruthTable: num_vars out of range [0,24]");
  words_.assign(words_for(num_vars), 0);
}

std::uint64_t TruthTable::live_mask(std::size_t) const {
  // Only the first word can be partially live (when num_vars_ < 6).
  if (num_vars_ >= 6) return ~0ull;
  return (std::uint64_t{1} << (std::uint64_t{1} << num_vars_)) - 1;
}

void TruthTable::normalize() {
  if (num_vars_ < 6) words_[0] &= live_mask(0);
}

TruthTable TruthTable::ones(int num_vars) {
  TruthTable t(num_vars);
  for (auto& w : t.words_) w = ~0ull;
  t.normalize();
  return t;
}

TruthTable TruthTable::var(int num_vars, int k) {
  if (k < 0 || k >= num_vars) throw std::invalid_argument("TruthTable::var: bad index");
  TruthTable t(num_vars);
  if (k < 6) {
    for (auto& w : t.words_) w = kVarMask[k];
  } else {
    const std::size_t stride = std::size_t{1} << (k - 6);
    for (std::size_t i = 0; i < t.words_.size(); ++i)
      if ((i / stride) & 1) t.words_[i] = ~0ull;
  }
  t.normalize();
  return t;
}

bool TruthTable::get(std::uint64_t m) const {
  return (words_[m >> 6] >> (m & 63)) & 1;
}

void TruthTable::set(std::uint64_t m, bool value) {
  if (m >= num_minterms_capacity()) throw std::out_of_range("TruthTable::set");
  if (value)
    words_[m >> 6] |= std::uint64_t{1} << (m & 63);
  else
    words_[m >> 6] &= ~(std::uint64_t{1} << (m & 63));
}

bool TruthTable::is_zero() const {
  for (auto w : words_)
    if (w) return false;
  return true;
}

bool TruthTable::is_ones() const {
  for (std::size_t i = 0; i < words_.size(); ++i)
    if (words_[i] != live_mask(i)) return false;
  return true;
}

std::uint64_t TruthTable::count_ones() const {
  std::uint64_t n = 0;
  for (auto w : words_) n += static_cast<std::uint64_t>(std::popcount(w));
  return n;
}

TruthTable TruthTable::cofactor(int k, bool val) const {
  if (k < 0 || k >= num_vars_) throw std::invalid_argument("cofactor: bad var");
  TruthTable r = *this;
  if (k < 6) {
    const int shift = 1 << k;
    const std::uint64_t hi = kVarMask[k];
    for (auto& w : r.words_) {
      if (val) {
        const std::uint64_t h = w & hi;
        w = h | (h >> shift);
      } else {
        const std::uint64_t l = w & ~hi;
        w = l | (l << shift);
      }
    }
  } else {
    const std::size_t stride = std::size_t{1} << (k - 6);
    for (std::size_t base = 0; base < r.words_.size(); base += 2 * stride)
      for (std::size_t i = 0; i < stride; ++i) {
        if (val)
          r.words_[base + i] = r.words_[base + stride + i];
        else
          r.words_[base + stride + i] = r.words_[base + i];
      }
  }
  r.normalize();
  return r;
}

bool TruthTable::depends_on(int k) const {
  if (k < 0 || k >= num_vars_) throw std::invalid_argument("cofactor: bad var");
  // Compare the x_k = 1 half against the x_k = 0 half in place; the two
  // cofactors differ exactly where these halves do.
  if (k < 6) {
    const int shift = 1 << k;
    const std::uint64_t hi = kVarMask[k];
    for (auto w : words_)
      if (((w & hi) >> shift) != (w & ~hi)) return true;
    return false;
  }
  const std::size_t stride = std::size_t{1} << (k - 6);
  for (std::size_t base = 0; base < words_.size(); base += 2 * stride)
    for (std::size_t i = 0; i < stride; ++i)
      if (words_[base + i] != words_[base + stride + i]) return true;
  return false;
}

int TruthTable::top_var(int below) const {
  for (int k = below - 1; k >= 0; --k)
    if (depends_on(k)) return k;
  return -1;
}

TruthTable TruthTable::operator&(const TruthTable& o) const {
  TruthTable r = *this;
  for (std::size_t i = 0; i < words_.size(); ++i) r.words_[i] &= o.words_[i];
  return r;
}

TruthTable TruthTable::operator|(const TruthTable& o) const {
  TruthTable r = *this;
  for (std::size_t i = 0; i < words_.size(); ++i) r.words_[i] |= o.words_[i];
  return r;
}

TruthTable TruthTable::operator^(const TruthTable& o) const {
  TruthTable r = *this;
  for (std::size_t i = 0; i < words_.size(); ++i) r.words_[i] ^= o.words_[i];
  return r;
}

TruthTable TruthTable::operator~() const {
  TruthTable r = *this;
  for (auto& w : r.words_) w = ~w;
  r.normalize();
  return r;
}

TruthTable TruthTable::diff(const TruthTable& o) const {
  TruthTable r = *this;
  for (std::size_t i = 0; i < words_.size(); ++i) r.words_[i] &= ~o.words_[i];
  return r;
}

std::uint64_t TruthTable::hash() const {
  // splitmix64 finalizer folded over the words.
  auto mix = [](std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  };
  std::uint64_t h = mix(static_cast<std::uint64_t>(num_vars_));
  for (auto w : words_) h = mix(h ^ w);
  return h;
}

bool TruthTable::implies(const TruthTable& o) const {
  for (std::size_t i = 0; i < words_.size(); ++i)
    if (words_[i] & ~o.words_[i]) return false;
  return true;
}

}  // namespace addm::logic
