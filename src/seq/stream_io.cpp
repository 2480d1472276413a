#include "seq/stream_io.hpp"

#include <array>
#include <cctype>
#include <climits>
#include <fstream>
#include <istream>
#include <optional>
#include <stdexcept>
#include <utility>

namespace addm::seq {

namespace detail {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("trace parse error at line " + std::to_string(line) + ": " +
                              what);
}

// One byte-class table drives every tokenizing decision.  The whitespace
// class is the C locale's isspace set; '#' ends a line's tokens wherever it
// appears, so "12#3" reads as "12".
enum ByteClass : unsigned char { kOther, kDigit, kSpace, kHash };

constexpr std::array<unsigned char, 256> kByteClass = [] {
  std::array<unsigned char, 256> t{};
  for (int c = '0'; c <= '9'; ++c) t[static_cast<unsigned char>(c)] = kDigit;
  for (char c : {' ', '\t', '\n', '\v', '\f', '\r'})
    t[static_cast<unsigned char>(c)] = kSpace;
  t[static_cast<unsigned char>('#')] = kHash;
  return t;
}();

unsigned char byte_class(char c) {
  return kByteClass[static_cast<unsigned char>(c)];
}

bool is_ws(char c) { return byte_class(c) == kSpace; }

// Tokens end at whitespace, at '#' or at the end of the line.
bool ends_token(const char* p, const char* end) {
  return p == end || byte_class(*p) >= kSpace;
}

void skip_ws(std::string_view s, std::size_t& pos) {
  while (pos < s.size() && is_ws(s[pos])) ++pos;
}

// Next whitespace-delimited token, or empty at end of line (mirrors
// `istringstream >> std::string`).  Directive lines are cut at '#' before
// they get here.
std::string_view next_token(std::string_view s, std::size_t& pos) {
  skip_ws(s, pos);
  const std::size_t start = pos;
  while (pos < s.size() && !is_ws(s[pos])) ++pos;
  return s.substr(start, pos - start);
}

// Emulates `istream >> std::size_t`: optional sign, base-10 digits,
// negative values wrap modulo 2^64, out-of-range digits fail the
// extraction.  Faithfulness here is what keeps the geometry directive's
// accepted grammar (and its error messages for inputs like "geometry 4x4")
// bit-identical to the istringstream-based reader this replaces.
std::optional<std::size_t> extract_size(std::string_view s, std::size_t& pos) {
  skip_ws(s, pos);
  bool negative = false;
  if (pos < s.size() && (s[pos] == '+' || s[pos] == '-')) {
    negative = s[pos] == '-';
    ++pos;
  }
  unsigned long long v = 0;
  bool any = false, overflow = false;
  while (pos < s.size() && byte_class(s[pos]) == kDigit) {
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

}  // namespace

LineSplitter::LineSplitter(std::istream& in, std::size_t chunk_bytes)
    : in_(in), chunk_(chunk_bytes < 1 ? 1 : chunk_bytes) {}

bool LineSplitter::refill() {
  if (eof_) return false;
  buf_.resize(chunk_);
  in_.read(buf_.data(), static_cast<std::streamsize>(chunk_));
  buf_.resize(static_cast<std::size_t>(in_.gcount()));
  pos_ = 0;
  if (buf_.empty()) {
    eof_ = true;
    return false;
  }
  return true;
}

bool LineSplitter::fetch() {
  pending_.clear();
  for (;;) {
    if (pos_ >= buf_.size()) {
      if (!refill()) {
        if (pending_.empty()) return false;
        line_ = pending_;  // final line without a trailing '\n'
        return true;
      }
    }
    const std::size_t nl = buf_.find('\n', pos_);
    if (nl == std::string::npos) {
      pending_.append(buf_, pos_, buf_.size() - pos_);
      pos_ = buf_.size();
      continue;
    }
    if (pending_.empty()) {
      line_ = std::string_view(buf_).substr(pos_, nl - pos_);
    } else {
      pending_.append(buf_, pos_, nl - pos_);
      line_ = pending_;
    }
    pos_ = nl + 1;
    return true;
  }
}

void TraceLineParser::line(std::string_view text, std::size_t line_no,
                           std::vector<std::uint32_t>& out) {
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p != end && byte_class(*p) == kSpace) ++p;
  if (p == end || *p == '#') return;  // blank / comment-only line

  // A token starting with a digit cannot be a directive.
  if (byte_class(*p) != kDigit) {
    const char* q = p;
    while (!ends_token(q, end)) ++q;
    const std::string_view first(p, static_cast<std::size_t>(q - p));
    if (first == "geometry" || first == "name") {
      directive(first, text.substr(0, text.find('#')),
                static_cast<std::size_t>(q - text.data()), line_no);
      return;
    }
  }

  // Otherwise the whole line is addresses, starting at p.
  if (!have_geometry_) fail(line_no, "addresses before the geometry directive");
  const std::size_t size = geom_.size();
  for (;;) {
    while (p != end && byte_class(*p) == kSpace) ++p;
    if (p == end || *p == '#') return;
    const char* const tok = p;
    // Fast path: up to 9 digits cannot overflow 32 bits, so the range test
    // is the only check.  The digit test is arithmetic; the table decides
    // where the token ends.
    std::uint32_t d = static_cast<unsigned char>(*p - '0');
    if (d < 10) {
      std::uint32_t v = d;
      const char* const lim = end - p > 9 ? p + 9 : end;
      for (++p; p != lim && (d = static_cast<unsigned char>(*p - '0')) < 10; ++p)
        v = v * 10 + d;
      if (ends_token(p, end)) {
        if (v >= size)
          fail_outside(std::string_view(tok, static_cast<std::size_t>(p - tok)), line_no);
        out.push_back(v);
        continue;
      }
    }
    p = tok;
    while (!ends_token(p, end)) ++p;
    long_address(std::string_view(tok, static_cast<std::size_t>(p - tok)), line_no, out);
  }
}

void TraceLineParser::directive(std::string_view first, std::string_view text,
                                std::size_t pos, std::size_t line_no) {
  if (first == "geometry") {
    if (have_geometry_) fail(line_no, "duplicate geometry");
    const auto w = extract_size(text, pos);
    const auto h = w ? extract_size(text, pos) : std::nullopt;
    if (!w || !h || *w == 0 || *h == 0)
      fail(line_no, "expected 'geometry <width> <height>' with positive sizes");
    const std::string_view extra = next_token(text, pos);
    if (!extra.empty()) fail(line_no, "trailing token '" + std::string(extra) + "'");
    if (!addressable({*w, *h}))
      fail(line_no, "geometry " + std::to_string(*w) + "x" + std::to_string(*h) +
                        " is too large (at most 2^32 cells, each side below 2^32)");
    geom_ = {*w, *h};
    have_geometry_ = true;
    return;
  }
  if (have_name_) fail(line_no, "duplicate name");
  const std::string_view value = next_token(text, pos);
  if (value.empty()) fail(line_no, "expected 'name <identifier>'");
  const std::string_view extra = next_token(text, pos);
  if (!extra.empty()) fail(line_no, "trailing token '" + std::string(extra) + "'");
  name_ = std::string(value);
  have_name_ = true;
}

void TraceLineParser::fail_outside(std::string_view tok, std::size_t line_no) const {
  fail(line_no, "address " + std::string(tok) + " outside the " +
                    std::to_string(geom_.width) + "x" + std::to_string(geom_.height) +
                    " array");
}

void TraceLineParser::long_address(std::string_view tok, std::size_t line_no,
                                   std::vector<std::uint32_t>& out) const {
  // A sign would wrap through unsigned conversion and surface as a
  // misleading "outside the array" error; an address token must be bare
  // digits (and fit in unsigned long, matching the historical std::stoul
  // behavior).
  bool digits = true;
  bool overflow = false;
  unsigned long v = 0;
  for (char c : tok) {
    if (byte_class(c) != kDigit) {
      digits = false;
      break;
    }
    const unsigned d = static_cast<unsigned>(c - '0');
    if (v > (ULONG_MAX - d) / 10) overflow = true;
    v = v * 10 + d;
  }
  if (!digits || overflow) fail(line_no, "not an address: '" + std::string(tok) + "'");
  if (v >= geom_.size()) fail_outside(tok, line_no);
  out.push_back(static_cast<std::uint32_t>(v));
}

void TraceLineParser::finish(bool any_addresses) const {
  if (!have_geometry_) throw std::invalid_argument("trace parse error: missing geometry");
  if (!any_addresses) throw std::invalid_argument("trace parse error: no addresses");
}

}  // namespace detail

TraceReader::TraceReader(std::istream& in, std::size_t chunk_bytes)
    : lines_(in, chunk_bytes) {}

AddressTrace TraceReader::read_all() {
  std::vector<std::uint32_t> addrs;
  std::size_t line_no = 0;
  while (lines_.fetch()) parser_.line(lines_.line(), ++line_no, addrs);
  parser_.finish(!addrs.empty());
  return AddressTrace(parser_.geometry(), std::move(addrs), parser_.name());
}

namespace {

[[noreturn]] void import_fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("lackey import error at line " + std::to_string(line) +
                              ": " + what);
}

bool is_hex(char c) {
  return std::isxdigit(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

AddressTrace import_lackey(std::istream& in, const LackeyImportOptions& opt) {
  if (opt.geometry.width == 0 || opt.geometry.height == 0)
    throw std::invalid_argument("lackey import: geometry must be positive");
  if (opt.word_bytes == 0)
    throw std::invalid_argument("lackey import: word size must be positive");
  if (opt.kinds.empty() ||
      opt.kinds.find_first_not_of("ILSM") != std::string::npos)
    throw std::invalid_argument(
        "lackey import: kinds must be a non-empty subset of \"ILSM\"");

  detail::LineSplitter lines(in, TraceReader::kDefaultChunkBytes);
  std::vector<std::uint32_t> addrs;
  std::uint64_t base = opt.base;
  bool have_base = !opt.auto_base;
  std::size_t line_no = 0;

  while (lines.fetch()) {
    ++line_no;
    const std::string_view text = lines.line();
    std::size_t pos = 0;
    detail::skip_ws(text, pos);
    if (pos >= text.size()) continue;                               // blank
    if (text.substr(pos, 2) == "==") continue;                      // valgrind chatter
    const char marker = text[pos];
    if (marker != 'I' && marker != 'L' && marker != 'S' && marker != 'M')
      import_fail(line_no,
                  "unrecognized line '" + std::string(text.substr(pos)) + "'");
    ++pos;
    detail::skip_ws(text, pos);
    const std::size_t addr_start = pos;
    if (text.substr(pos, 2) == "0x" || text.substr(pos, 2) == "0X") pos += 2;
    std::uint64_t addr = 0;
    bool any = false, overflow = false;
    while (pos < text.size() && is_hex(text[pos])) {
      any = true;
      if (addr >> 60) overflow = true;
      addr = addr * 16 +
             static_cast<std::uint64_t>(
                 std::isdigit(static_cast<unsigned char>(text[pos]))
                     ? text[pos] - '0'
                     : std::tolower(static_cast<unsigned char>(text[pos])) - 'a' + 10);
      ++pos;
    }
    const std::string addr_text(text.substr(addr_start, pos - addr_start));
    if (!any || overflow)
      import_fail(line_no, "expected hex address after '" + std::string(1, marker) + "'");
    if (pos >= text.size() || text[pos] != ',')
      import_fail(line_no, "expected ',<size>' after address " + addr_text);
    ++pos;
    bool size_digits = false;
    while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) {
      size_digits = true;
      ++pos;
    }
    if (!size_digits)
      import_fail(line_no, "expected ',<size>' after address " + addr_text);
    detail::skip_ws(text, pos);
    if (pos < text.size())
      import_fail(line_no, "trailing token '" + std::string(text.substr(pos)) + "'");

    if (opt.kinds.find(marker) == std::string::npos) continue;
    if (!have_base) {
      base = addr;
      have_base = true;
    }
    if (addr < base)
      import_fail(line_no, "address " + addr_text + " below the base address (use --base)");
    const std::uint64_t word = (addr - base) / opt.word_bytes;
    if (word >= opt.geometry.size())
      import_fail(line_no, "address " + addr_text + " maps to word " +
                               std::to_string(word) + " outside the " +
                               std::to_string(opt.geometry.width) + "x" +
                               std::to_string(opt.geometry.height) + " array");
    addrs.push_back(static_cast<std::uint32_t>(word));
  }
  if (addrs.empty())
    throw std::invalid_argument("lackey import error: no matching accesses");
  return AddressTrace(opt.geometry, std::move(addrs), opt.name);
}

AddressTrace import_lackey_file(const std::string& path,
                                const LackeyImportOptions& opt) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open lackey log: " + path);
  return import_lackey(in, opt);
}

}  // namespace addm::seq
