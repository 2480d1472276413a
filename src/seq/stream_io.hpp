// Trace ingestion: the one reader of the trace text format.
//
//  * TraceReader — a chunked, single-pass reader (memory: one I/O chunk
//    plus the longest line, on top of the trace it returns).  read_all()
//    parses every line straight into the materialized trace.
//    seq::read_trace / read_trace_string / read_trace_file
//    (seq/trace_io.hpp) are thin wrappers over it, so every tool and the
//    daemon share this path; periodicity compression runs afterwards, on
//    the materialized trace (seq/periodicity.hpp).
//  * The tokenizer (detail::TraceLineParser) makes one pass per line driven
//    by a constexpr byte-class table: C-locale whitespace, digits, and '#',
//    which ends the line's tokens wherever it appears.  Address tokens of up
//    to 9 digits take a bare digit loop plus the range check; longer or odd
//    tokens fall back to the exact rules ("not an address" unless bare
//    digits that fit in unsigned long, then the range check).  The geometry
//    directive rejects arrays whose linear addresses would not fit in 32
//    bits (width and height each below 2^32, width x height at most 2^32).
//    Grammar and error strings are differential-tested against a test-only
//    reference parser, and fuzzed.
//  * import_lackey — converts valgrind/lackey-style recorded memory logs
//    ("I/L/S/M hexaddr,size" lines) into address traces over a declared
//    array geometry, the entry point for real recorded workloads
//    (tools/addm_trace_import wraps it).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "seq/trace.hpp"

namespace addm::seq {

namespace detail {

/// Splits an istream into '\n'-terminated lines, reading in fixed-size
/// chunks.  Lines that fit inside one chunk are returned as views into the
/// chunk buffer (zero copy); only chunk-spanning lines are assembled in a
/// carry buffer.  Matches std::getline line semantics exactly: '\r' stays
/// in the line, a final unterminated line is returned, a trailing '\n'
/// does not produce an empty last line.
class LineSplitter {
 public:
  explicit LineSplitter(std::istream& in, std::size_t chunk_bytes);

  /// Fetches the next line into line(); false at end of input.
  bool fetch();
  std::string_view line() const { return line_; }

 private:
  bool refill();

  std::istream& in_;
  std::size_t chunk_;
  std::string buf_;
  std::size_t pos_ = 0;
  std::string pending_;
  std::string_view line_;
  bool eof_ = false;
};

/// The trace-format line grammar behind every trace reader (the one-pass
/// table-driven tokenizer described at the top of this file).  Stateful:
/// remembers the geometry/name directives seen so far.
class TraceLineParser {
 public:
  /// Parses one line (no trailing '\n'), appending any addresses to `out`.
  /// Throws std::invalid_argument with line-numbered messages on malformed
  /// input.
  void line(std::string_view text, std::size_t line_no,
            std::vector<std::uint32_t>& out);

  /// End-of-input validation (missing geometry / no addresses), given
  /// whether any address was produced.
  void finish(bool any_addresses) const;

  const ArrayGeometry& geometry() const { return geom_; }
  const std::string& name() const { return name_; }

 private:
  /// `text` is the line cut at its first '#', `pos` the offset just past
  /// the directive keyword `first`.
  void directive(std::string_view first, std::string_view text, std::size_t pos,
                 std::size_t line_no);
  void long_address(std::string_view tok, std::size_t line_no,
                    std::vector<std::uint32_t>& out) const;
  [[noreturn]] void fail_outside(std::string_view tok, std::size_t line_no) const;

  ArrayGeometry geom_{};
  bool have_geometry_ = false;
  bool have_name_ = false;
  std::string name_;
};

}  // namespace detail

/// Chunked reader for the trace text format (see seq/trace_io.hpp).
class TraceReader {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  /// `chunk_bytes` tunes I/O granularity (tests shrink it to exercise
  /// chunk-boundary handling); values below 1 are clamped to 1.
  explicit TraceReader(std::istream& in,
                       std::size_t chunk_bytes = kDefaultChunkBytes);

  /// Reads the whole stream into a materialized trace, parsing each line
  /// straight into it.  Throws std::invalid_argument with line-numbered
  /// messages on malformed input, including the end-of-input "missing
  /// geometry" / "no addresses" checks.  read_trace is this call.
  AddressTrace read_all();

 private:
  detail::LineSplitter lines_;
  detail::TraceLineParser parser_;
};

/// Import options for valgrind/lackey-style memory logs.
struct LackeyImportOptions {
  ArrayGeometry geometry;      ///< required: target array shape
  std::string kinds = "LSM";   ///< which markers to keep (subset of "ILSM")
  bool auto_base = true;       ///< base = first selected access's address
  std::uint64_t base = 0;      ///< explicit base when !auto_base
  std::uint32_t word_bytes = 4;  ///< bytes per array word
  std::string name;            ///< trace name for the result
};

/// Parses a lackey-style log: lines of the form
///
///   I  0023c10,3        (instruction fetch)
///    L 04025cb0,8       (load)     S .. (store)     M .. (modify)
///
/// with hex addresses ("0x" prefix optional).  Blank lines and `==pid==`
/// chatter are skipped; anything else malformed throws std::invalid_argument
/// with a line-numbered "lackey import error".  Selected accesses map to
/// linear = (addr - base) / word_bytes, which must land inside
/// opt.geometry; sub-word accesses fold onto their containing word.
/// Throws if no access matches opt.kinds.
AddressTrace import_lackey(std::istream& in, const LackeyImportOptions& opt);
AddressTrace import_lackey_file(const std::string& path,
                                const LackeyImportOptions& opt);

}  // namespace addm::seq
