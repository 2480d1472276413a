#include "codegen/verilog.hpp"

#include <sstream>

namespace addm::codegen {

using netlist::Cell;
using netlist::CellType;
using netlist::Netlist;
using netlist::NetId;

std::string sanitize_identifier(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (c == '[') {
      out += '_';
    } else if (c == ']') {
      // drop
    } else {
      out += c;
    }
  }
  return out;
}

namespace {

// "n<id>", the name of an internal wire.
std::string wire_name(NetId n) {
  std::string s = "n";
  s += std::to_string(n);
  return s;
}

std::string net_ref(const Netlist& nl, NetId n) {
  if (n == netlist::kConst0) return "1'b0";
  if (n == netlist::kConst1) return "1'b1";
  for (std::size_t i = 0; i < nl.inputs().size(); ++i)
    if (nl.inputs()[i] == n) return sanitize_identifier(nl.input_name(i));
  return wire_name(n);
}

}  // namespace

std::string to_verilog(const Netlist& nl, const std::string& module_name) {
  std::ostringstream os;
  os << "// Generated by SRAdGen (addm reproduction); do not edit.\n";
  os << "module " << module_name << " (\n  input wire clk";
  for (std::size_t i = 0; i < nl.inputs().size(); ++i)
    os << ",\n  input wire " << sanitize_identifier(nl.input_name(i));
  for (std::size_t i = 0; i < nl.outputs().size(); ++i)
    os << ",\n  output wire " << sanitize_identifier(nl.output_name(i));
  os << "\n);\n\n";

  // Internal nets (cell outputs).
  for (const Cell& c : nl.cells())
    if (is_sequential(c.type))
      os << "  reg  n" << c.output << ";\n";
    else
      os << "  wire n" << c.output << ";\n";
  os << "\n";

  // Combinational cells.
  for (const Cell& c : nl.cells()) {
    const auto in = [&](int k) { return net_ref(nl, c.inputs[static_cast<std::size_t>(k)]); };
    const std::string out = wire_name(c.output);
    switch (c.type) {
      case CellType::Inv:   os << "  assign " << out << " = ~" << in(0) << ";\n"; break;
      case CellType::Buf:   os << "  assign " << out << " = " << in(0) << ";\n"; break;
      case CellType::Nand2: os << "  assign " << out << " = ~(" << in(0) << " & " << in(1) << ");\n"; break;
      case CellType::Nor2:  os << "  assign " << out << " = ~(" << in(0) << " | " << in(1) << ");\n"; break;
      case CellType::And2:  os << "  assign " << out << " = " << in(0) << " & " << in(1) << ";\n"; break;
      case CellType::Or2:   os << "  assign " << out << " = " << in(0) << " | " << in(1) << ";\n"; break;
      case CellType::Xor2:  os << "  assign " << out << " = " << in(0) << " ^ " << in(1) << ";\n"; break;
      case CellType::Xnor2: os << "  assign " << out << " = ~(" << in(0) << " ^ " << in(1) << ");\n"; break;
      case CellType::Mux2:
        os << "  assign " << out << " = " << in(0) << " ? " << in(2) << " : " << in(1) << ";\n";
        break;
      default: break;  // sequential handled below
    }
  }
  os << "\n";

  // Flip-flops.
  for (const Cell& c : nl.cells()) {
    if (!is_sequential(c.type)) continue;
    const auto in = [&](int k) { return net_ref(nl, c.inputs[static_cast<std::size_t>(k)]); };
    const std::string q = wire_name(c.output);
    os << "  always @(posedge clk) begin\n";
    switch (c.type) {
      case CellType::Dff:
        os << "    " << q << " <= " << in(0) << ";\n";
        break;
      case CellType::DffR:
        os << "    if (" << in(1) << ") " << q << " <= 1'b0; else " << q << " <= " << in(0) << ";\n";
        break;
      case CellType::DffS:
        os << "    if (" << in(1) << ") " << q << " <= 1'b1; else " << q << " <= " << in(0) << ";\n";
        break;
      case CellType::DffE:
        os << "    if (" << in(1) << ") " << q << " <= " << in(0) << ";\n";
        break;
      case CellType::DffER:
        os << "    if (" << in(2) << ") " << q << " <= 1'b0;\n"
           << "    else if (" << in(1) << ") " << q << " <= " << in(0) << ";\n";
        break;
      case CellType::DffES:
        os << "    if (" << in(2) << ") " << q << " <= 1'b1;\n"
           << "    else if (" << in(1) << ") " << q << " <= " << in(0) << ";\n";
        break;
      default: break;
    }
    os << "  end\n";
  }
  os << "\n";

  // Output bindings.
  for (std::size_t i = 0; i < nl.outputs().size(); ++i)
    os << "  assign " << sanitize_identifier(nl.output_name(i)) << " = "
       << net_ref(nl, nl.outputs()[i]) << ";\n";
  os << "\nendmodule\n";
  return os.str();
}

}  // namespace addm::codegen
