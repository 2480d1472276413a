#include "seq/trace.hpp"

#include <cstdint>
#include <stdexcept>

namespace addm::seq {

AddressTrace::AddressTrace(ArrayGeometry geom, std::vector<std::uint32_t> linear,
                           std::string name)
    : geom_(geom), linear_(std::move(linear)), name_(std::move(name)) {
  if (geom_.width == 0 || geom_.height == 0)
    throw std::invalid_argument("AddressTrace: degenerate geometry");
  if (!addressable(geom_))
    throw std::invalid_argument("AddressTrace: geometry " + std::to_string(geom_.width) +
                                "x" + std::to_string(geom_.height) +
                                " is too large (at most 2^32 cells, each side below 2^32)");
  for (std::uint32_t a : linear_)
    if (a >= geom_.size())
      throw std::invalid_argument("AddressTrace: address " + std::to_string(a) +
                                  " outside array of " + std::to_string(geom_.size()));
}

std::vector<std::uint32_t> AddressTrace::rows() const {
  std::vector<std::uint32_t> r;
  r.reserve(linear_.size());
  for (std::uint32_t a : linear_) r.push_back(row_of(a));
  return r;
}

std::vector<std::uint32_t> AddressTrace::cols() const {
  std::vector<std::uint32_t> c;
  c.reserve(linear_.size());
  for (std::uint32_t a : linear_) c.push_back(col_of(a));
  return c;
}

bool addressable(const ArrayGeometry& g) {
  constexpr std::uint64_t kMaxSide = UINT32_MAX;
  // Both sides below 2^32, so the product cannot overflow 64 bits.
  return g.width <= kMaxSide && g.height <= kMaxSide &&
         std::uint64_t{g.width} * g.height <= kMaxSide + 1;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return false;
    v = v * 10 + d;
  }
  out = v;
  return true;
}

bool parse_geometry(std::string_view s, ArrayGeometry& g) {
  const std::size_t x = s.find('x');
  if (x == std::string_view::npos) return false;
  std::uint64_t w = 0, h = 0;
  if (!parse_u64(s.substr(0, x), w) || !parse_u64(s.substr(x + 1), h)) return false;
  if (w == 0 || h == 0) return false;
  g.width = static_cast<std::size_t>(w);
  g.height = static_cast<std::size_t>(h);
  return true;
}

}  // namespace addm::seq
