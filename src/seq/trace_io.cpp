#include "seq/trace_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "seq/stream_io.hpp"

namespace addm::seq {

AddressTrace read_trace(std::istream& in) {
  return TraceReader(in).read_all();
}

AddressTrace read_trace_string(const std::string& text) {
  std::istringstream in(text);
  return read_trace(in);
}

void write_trace(std::ostream& out, const AddressTrace& trace) {
  out << "# addm address trace (" << trace.length() << " accesses)\n";
  out << "geometry " << trace.geometry().width << " " << trace.geometry().height << "\n";
  if (!trace.name().empty()) out << "name " << trace.name() << "\n";
  const auto& a = trace.linear();
  for (std::size_t i = 0; i < a.size(); ++i)
    out << a[i] << (((i + 1) % 16 == 0 || i + 1 == a.size()) ? "\n" : " ");
}

std::string write_trace_string(const AddressTrace& trace) {
  std::ostringstream os;
  write_trace(os, trace);
  return os.str();
}

AddressTrace read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return read_trace(in);
}

void write_trace_file(const std::string& path, const AddressTrace& trace) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file for writing: " + path);
  write_trace(out, trace);
  out.flush();
  if (!out) throw std::runtime_error("error writing trace file: " + path);
}

}  // namespace addm::seq
