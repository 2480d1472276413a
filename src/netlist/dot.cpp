#include "netlist/dot.hpp"

#include <sstream>

namespace addm::netlist {

std::string to_dot(const Netlist& nl, const std::string& graph_name) {
  std::ostringstream os;
  os << "digraph " << graph_name << " {\n  rankdir=LR;\n";
  for (std::size_t i = 0; i < nl.inputs().size(); ++i)
    os << "  pi" << nl.inputs()[i] << " [shape=ellipse,label=\"" << nl.input_name(i)
       << "\"];\n";
  for (std::size_t i = 0; i < nl.cells().size(); ++i) {
    const Cell& c = nl.cell(i);
    os << "  c" << i << " [shape=box,label=\"" << cell_name(c.type) << "\"];\n";
  }
  // Streams the node that drives net n.
  auto src_node = [&](NetId n) -> std::ostream& {
    if (n == kConst0) return os << "const0";
    if (n == kConst1) return os << "const1";
    if (nl.is_primary_input(n)) return os << "pi" << n;
    if (auto d = nl.driver_of(n)) return os << "c" << *d;
    return os << "undriven" << n;
  };
  bool used_c0 = false, used_c1 = false;
  for (std::size_t i = 0; i < nl.cells().size(); ++i) {
    for (NetId in : nl.cell(i).inputs) {
      used_c0 |= (in == kConst0);
      used_c1 |= (in == kConst1);
      os << "  ";
      src_node(in) << " -> c" << i << ";\n";
    }
  }
  if (used_c0) os << "  const0 [shape=plaintext,label=\"0\"];\n";
  if (used_c1) os << "  const1 [shape=plaintext,label=\"1\"];\n";
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    os << "  po" << i << " [shape=ellipse,label=\"" << nl.output_name(i) << "\"];\n";
    os << "  ";
    src_node(nl.outputs()[i]) << " -> po" << i << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace addm::netlist
