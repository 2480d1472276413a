// Address traces: linear address sequences over a 2-D memory array.
//
// Following Section 5 of the paper, arrays are row-major mapped:
//   linear = row * width + col,   RA = row,   CA = col.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace addm::seq {

/// Dimensions of the 2-D memory cell array (width = img_width = columns).
struct ArrayGeometry {
  std::size_t width = 0;
  std::size_t height = 0;

  std::size_t size() const { return width * height; }
  bool operator==(const ArrayGeometry&) const = default;
};

/// True when every linear address of `g` fits in std::uint32_t: width and
/// height each fit in 32 bits and width x height is at most 2^32.
bool addressable(const ArrayGeometry& g);

/// Strict non-negative decimal: digits only, no sign or whitespace; false
/// on overflow or any other malformed input.
bool parse_u64(std::string_view s, std::uint64_t& out);

/// "WxH" with positive decimal dimensions, e.g. "8x8".
bool parse_geometry(std::string_view s, ArrayGeometry& g);

/// An ordered sequence of linear addresses into a fixed geometry.
class AddressTrace {
 public:
  AddressTrace() = default;
  /// Throws std::invalid_argument if the geometry is empty or not
  /// addressable(), or if any address is outside the array.
  AddressTrace(ArrayGeometry geom, std::vector<std::uint32_t> linear,
               std::string name = {});

  const ArrayGeometry& geometry() const { return geom_; }
  const std::string& name() const { return name_; }
  /// Renames in place (e.g. to disambiguate suite variants); addresses and
  /// geometry — and thus the trace fingerprint — are unaffected.
  void set_name(std::string name) { name_ = std::move(name); }
  std::size_t length() const { return linear_.size(); }
  bool empty() const { return linear_.empty(); }

  const std::vector<std::uint32_t>& linear() const { return linear_; }
  /// Row address sequence (RowAS).
  std::vector<std::uint32_t> rows() const;
  /// Column address sequence (ColAS).
  std::vector<std::uint32_t> cols() const;

  std::uint32_t row_of(std::uint32_t a) const { return a / static_cast<std::uint32_t>(geom_.width); }
  std::uint32_t col_of(std::uint32_t a) const { return a % static_cast<std::uint32_t>(geom_.width); }

 private:
  ArrayGeometry geom_;
  std::vector<std::uint32_t> linear_;
  std::string name_;
};

}  // namespace addm::seq
