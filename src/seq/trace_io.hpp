// Text serialization for address traces.
//
// Format (line oriented, '#' starts a comment):
//
//   # optional comments
//   geometry <width> <height>
//   name <identifier>          (optional)
//   <addr> <addr> ...          (any number of lines of linear addresses)
//
// Each directive may appear at most once and takes exactly its operands.
// The geometry must be 32-bit addressable: width and height below 2^32 and
// width x height at most 2^32.
// Used by the sradgen tool and for exchanging traces with external
// profilers/simulators.  The readers below are thin wrappers over
// seq::TraceReader (seq/stream_io.hpp), the one tokenizer of this format.
#pragma once

#include <iosfwd>
#include <string>

#include "seq/trace.hpp"

namespace addm::seq {

/// Parses a trace (TraceReader::read_all); throws std::invalid_argument with
/// a line-numbered message on malformed input.
AddressTrace read_trace(std::istream& in);
AddressTrace read_trace_string(const std::string& text);

/// Writes the trace in the format above (16 addresses per line).
void write_trace(std::ostream& out, const AddressTrace& trace);
std::string write_trace_string(const AddressTrace& trace);

/// File convenience wrappers. Throw std::runtime_error when the file cannot
/// be opened (message includes the path); parse errors propagate as
/// std::invalid_argument from read_trace.
AddressTrace read_trace_file(const std::string& path);
void write_trace_file(const std::string& path, const AddressTrace& trace);

}  // namespace addm::seq
