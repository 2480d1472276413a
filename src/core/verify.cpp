#include "core/verify.hpp"

#include <sstream>

#include "sim/word_simulator.hpp"

namespace addm::core {

namespace {

using sim::WordSimulator;

/// All 64 lanes carry the same stimulus, so a correct one-hot bus shows the
/// expected line at kAllLanes and every other line at 0.  Anything else is
/// either a functional divergence or a lane-coherence violation.
std::optional<std::string> check_one_hot(const WordSimulator& ws,
                                         const std::vector<netlist::NetId>& nets,
                                         const std::string& bus, std::size_t expected,
                                         std::size_t cycle) {
  if (expected >= nets.size()) {
    std::ostringstream os;
    os << "cycle " << cycle << ": expected " << bus << "[" << expected
       << "] but the bus has only " << nets.size() << " lines";
    return os.str();
  }
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const std::uint64_t want = i == expected ? WordSimulator::kAllLanes : 0;
    const std::uint64_t got = ws.word(nets[i]);
    if (got == want) continue;
    std::ostringstream os;
    os << "cycle " << cycle << ": " << bus << "[" << i << "] lanes 0x" << std::hex
       << got << std::dec << ", expected " << (want ? "all ones" : "all zeros")
       << " (hot line should be " << expected << ")";
    return os.str();
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> verify_reference_against_trace(
    const ReferenceCircuit& rc, const seq::AddressTrace& trace) {
  WordSimulator ws(rc.netlist);

  const auto row_nets = rc.netlist.output_bus(rc.row_bus);
  if (row_nets.empty()) return "reference netlist has no output bus " + rc.row_bus;
  std::vector<netlist::NetId> col_nets;
  if (!rc.col_bus.empty()) {
    col_nets = rc.netlist.output_bus(rc.col_bus);
    if (col_nets.empty()) return "reference netlist has no output bus " + rc.col_bus;
  }

  // One reset cycle with the replay inputs deasserted, then hold `drive`.
  ws.set_all("reset", true);
  for (const auto& [name, value] : rc.drive) {
    (void)value;
    ws.set_all(name, false);
  }
  ws.step();
  ws.set_all("reset", false);
  for (const auto& [name, value] : rc.drive) ws.set_all(name, value);

  for (std::size_t k = 0; k < trace.length(); ++k) {
    const std::uint32_t a = trace.linear()[k];
    if (col_nets.empty()) {
      if (auto err = check_one_hot(ws, row_nets, rc.row_bus, a, k)) return err;
    } else {
      if (auto err = check_one_hot(ws, row_nets, rc.row_bus, trace.row_of(a), k))
        return err;
      if (auto err = check_one_hot(ws, col_nets, rc.col_bus, trace.col_of(a), k))
        return err;
    }
    ws.step();
  }
  return std::nullopt;
}

FrontVerification verify_pareto_points(const seq::AddressTrace& trace,
                                       std::vector<DesignPoint>& points,
                                       const std::vector<std::size_t>& front,
                                       const ExploreOptions& opt) {
  FrontVerification tally;
  for (std::size_t idx : front) {
    DesignPoint& p = points[idx];

    const GeneratorEntry* entry = nullptr;
    for (const GeneratorEntry& e : generator_registry())
      if (e.name == p.architecture) {
        entry = &e;
        break;
      }

    std::optional<ReferenceCircuit> rc;
    if (entry && entry->reference) rc = entry->reference(trace, opt);
    if (!rc) {
      // A feasible front point whose candidate cannot re-elaborate should
      // not happen; record it visibly rather than passing it silently.
      p.note += " [verify skipped: no reference netlist]";
      ++tally.skipped;
      continue;
    }

    if (auto err = verify_reference_against_trace(*rc, trace)) {
      p.note += " [verify FAILED: " + *err + "]";
      ++tally.failed;
    } else {
      p.note += " [verified: " + std::to_string(trace.length()) + " cycles x " +
                std::to_string(sim::WordSimulator::kLanes) + " lanes]";
      ++tally.verified;
    }
  }
  return tally;
}

}  // namespace addm::core
