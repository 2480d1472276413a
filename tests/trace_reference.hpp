// Test-only reference reader for the trace text format (seq/trace_io.hpp).
//
// An independent, deliberately plain implementation of the grammar: lines
// come from std::getline, each line is cut at its first '#', tokens are
// split with isspace, and every address token is checked with one
// unoptimized digit loop.  The library's table-driven TraceReader is
// differential-tested against it, output and exact error strings alike
// (stream_property_test, stream_io_test, tests/fuzz/trace_grammar_fuzz).
#pragma once

#include <cctype>
#include <climits>
#include <cstdint>
#include <istream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "seq/trace.hpp"

namespace addm::seq::reference {

[[noreturn]] inline void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("trace parse error at line " + std::to_string(line) + ": " +
                              what);
}

inline bool is_ws(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

inline void skip_ws(std::string_view s, std::size_t& pos) {
  while (pos < s.size() && is_ws(s[pos])) ++pos;
}

// Next whitespace-delimited token, or empty at end of line (mirrors
// `istringstream >> std::string`).
inline std::string_view next_token(std::string_view s, std::size_t& pos) {
  skip_ws(s, pos);
  const std::size_t start = pos;
  while (pos < s.size() && !is_ws(s[pos])) ++pos;
  return s.substr(start, pos - start);
}

// Emulates `istream >> std::size_t`: optional sign, base-10 digits,
// negative values wrap modulo 2^64, out-of-range digits fail the
// extraction.
inline std::optional<std::size_t> extract_size(std::string_view s, std::size_t& pos) {
  skip_ws(s, pos);
  bool negative = false;
  if (pos < s.size() && (s[pos] == '+' || s[pos] == '-')) {
    negative = s[pos] == '-';
    ++pos;
  }
  unsigned long long v = 0;
  bool any = false, overflow = false;
  while (pos < s.size() && std::isdigit(static_cast<unsigned char>(s[pos]))) {
    any = true;
    const unsigned d = static_cast<unsigned>(s[pos] - '0');
    if (v > (ULLONG_MAX - d) / 10) overflow = true;
    v = v * 10 + d;
    ++pos;
  }
  if (!any || overflow) return std::nullopt;
  if (negative) v = 0ULL - v;
  return static_cast<std::size_t>(v);
}

class LineParser {
 public:
  void line(std::string_view text, std::size_t line_no, std::vector<std::uint32_t>& out) {
    if (const auto hash = text.find('#'); hash != std::string_view::npos)
      text = text.substr(0, hash);

    std::size_t pos = 0;
    const std::string_view first = next_token(text, pos);
    if (first.empty()) return;  // blank / comment-only line

    if (first == "geometry") {
      if (have_geometry_) fail(line_no, "duplicate geometry");
      const auto w = extract_size(text, pos);
      const auto h = w ? extract_size(text, pos) : std::nullopt;
      if (!w || !h || *w == 0 || *h == 0)
        fail(line_no, "expected 'geometry <width> <height>' with positive sizes");
      const std::string_view extra = next_token(text, pos);
      if (!extra.empty()) fail(line_no, "trailing token '" + std::string(extra) + "'");
      // Every linear address must fit in 32 bits.
      if (*w > UINT32_MAX || *h > UINT32_MAX ||
          static_cast<unsigned long long>(*w) * *h > (1ULL << 32))
        fail(line_no, "geometry " + std::to_string(*w) + "x" + std::to_string(*h) +
                          " is too large (at most 2^32 cells, each side below 2^32)");
      geom_ = {*w, *h};
      have_geometry_ = true;
      return;
    }
    if (first == "name") {
      if (have_name_) fail(line_no, "duplicate name");
      const std::string_view value = next_token(text, pos);
      if (value.empty()) fail(line_no, "expected 'name <identifier>'");
      const std::string_view extra = next_token(text, pos);
      if (!extra.empty()) fail(line_no, "trailing token '" + std::string(extra) + "'");
      name_ = std::string(value);
      have_name_ = true;
      return;
    }

    // Otherwise the whole line is addresses (first is the first of them).
    if (!have_geometry_) fail(line_no, "addresses before the geometry directive");
    pos = 0;
    for (;;) {
      const std::string_view tok = next_token(text, pos);
      if (tok.empty()) break;
      bool digits = true;
      unsigned long v = 0;
      bool overflow = false;
      for (char c : tok) {
        if (!std::isdigit(static_cast<unsigned char>(c))) {
          digits = false;
          break;
        }
        const unsigned d = static_cast<unsigned>(c - '0');
        if (v > (ULONG_MAX - d) / 10) overflow = true;
        v = v * 10 + d;
      }
      if (!digits || overflow) fail(line_no, "not an address: '" + std::string(tok) + "'");
      if (v >= geom_.size())
        fail(line_no, "address " + std::string(tok) + " outside the " +
                          std::to_string(geom_.width) + "x" +
                          std::to_string(geom_.height) + " array");
      out.push_back(static_cast<std::uint32_t>(v));
    }
  }

  void finish(bool any_addresses) const {
    if (!have_geometry_) throw std::invalid_argument("trace parse error: missing geometry");
    if (!any_addresses) throw std::invalid_argument("trace parse error: no addresses");
  }

  const ArrayGeometry& geometry() const { return geom_; }
  const std::string& name() const { return name_; }

 private:
  ArrayGeometry geom_{};
  bool have_geometry_ = false;
  bool have_name_ = false;
  std::string name_;
};

inline AddressTrace read_trace(std::istream& in) {
  LineParser parser;
  std::vector<std::uint32_t> addrs;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) parser.line(line, ++line_no, addrs);
  parser.finish(!addrs.empty());
  return AddressTrace(parser.geometry(), std::move(addrs), parser.name());
}

inline AddressTrace read_trace_string(const std::string& text) {
  std::istringstream in(text);
  return read_trace(in);
}

/// What one reader made of one input: the trace, or the error message.
struct ReadOutcome {
  bool ok = false;
  std::string error;
  std::vector<std::uint32_t> linear;
  ArrayGeometry geometry;
  std::string name;
  bool operator==(const ReadOutcome&) const = default;
};

template <class Read>
ReadOutcome read_outcome(Read&& read) {
  ReadOutcome out;
  try {
    const AddressTrace t = read();
    out.ok = true;
    out.linear = t.linear();
    out.geometry = t.geometry();
    out.name = t.name();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

}  // namespace addm::seq::reference
