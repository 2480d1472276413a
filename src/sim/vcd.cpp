#include "sim/vcd.hpp"

#include <sstream>
#include <unordered_set>


namespace addm::sim {

namespace {
// Local bus-name flattening ("sel[3]" -> "sel_3"); keeps sim independent of
// the codegen layer.
std::string flatten(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (c == '[') out += '_';
    else if (c != ']') out += c;
  }
  return out;
}
}  // namespace

std::string VcdRecorder::make_id(std::size_t index) {
  // Printable-ASCII base-94 identifiers, as the VCD format prescribes.
  std::string id;
  do {
    id += static_cast<char>('!' + index % 94);
    index /= 94;
  } while (index > 0);
  return id;
}

VcdRecorder::VcdRecorder(const Simulator& sim, std::string top_name, VcdOptions options)
    : sim_(&sim) {
  const auto& nl = sim.netlist();

  std::unordered_set<netlist::NetId> seen;
  auto add_signal = [&](netlist::NetId net, std::string name) {
    if (!seen.insert(net).second) return;
    signals_.push_back(Signal{net, make_id(signals_.size()), std::move(name), false});
  };
  for (std::size_t i = 0; i < nl.inputs().size(); ++i)
    add_signal(nl.inputs()[i], flatten(nl.input_name(i)));
  for (std::size_t i = 0; i < nl.outputs().size(); ++i)
    add_signal(nl.outputs()[i], flatten(nl.output_name(i)));
  if (options.include_internal_nets)
    for (const auto& cell : nl.cells()) {
      std::string name = "n";
      name += std::to_string(cell.output);
      add_signal(cell.output, std::move(name));
    }

  std::ostringstream os;
  os << "$date addm simulation $end\n";
  os << "$version addm VcdRecorder $end\n";
  os << "$timescale " << options.timescale << " $end\n";
  os << "$scope module " << top_name << " $end\n";
  for (const Signal& s : signals_)
    os << "$var wire 1 " << s.id << " " << s.name << " $end\n";
  os << "$upscope $end\n$enddefinitions $end\n";
  header_ = os.str();

  // Time-0 snapshot.
  std::ostringstream body;
  body << "#0\n$dumpvars\n";
  for (Signal& s : signals_) {
    s.last = sim_->value(s.net);
    body << (s.last ? '1' : '0') << s.id << "\n";
  }
  body << "$end\n";
  body_ = body.str();
}

void VcdRecorder::sample() {
  ++time_;
  std::ostringstream os;
  bool any = false;
  for (Signal& s : signals_) {
    const bool v = sim_->value(s.net);
    if (v == s.last) continue;
    if (!any) {
      os << "#" << time_ << "\n";
      any = true;
    }
    os << (v ? '1' : '0') << s.id << "\n";
    s.last = v;
  }
  body_ += os.str();
}

std::string VcdRecorder::str() const { return header_ + body_; }

}  // namespace addm::sim
