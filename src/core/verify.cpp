#include "core/verify.hpp"

#include <sstream>

#include "core/metrics.hpp"
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

std::optional<std::string> verify_candidate(const Candidate& c,
                                            const seq::AddressTrace& trace) {
  WordSimulator ws(c.netlist);

  const auto row_nets = c.netlist.output_bus(c.row_bus);
  if (row_nets.empty()) return "netlist has no output bus " + c.row_bus;
  std::vector<netlist::NetId> col_nets;
  if (!c.col_bus.empty()) {
    col_nets = c.netlist.output_bus(c.col_bus);
    if (col_nets.empty()) return "netlist has no output bus " + c.col_bus;
  }

  // One reset cycle with the replay inputs deasserted, then hold `drive`.
  ws.set_all("reset", true);
  for (const auto& [name, value] : c.drive) {
    (void)value;
    ws.set_all(name, false);
  }
  ws.step();
  ws.set_all("reset", false);
  for (const auto& [name, value] : c.drive) ws.set_all(name, value);

  for (std::size_t k = 0; k < trace.length(); ++k) {
    const std::uint32_t a = trace.linear()[k];
    if (col_nets.empty()) {
      if (auto err = check_one_hot(ws, row_nets, c.row_bus, a, k)) return err;
    } else {
      if (auto err = check_one_hot(ws, row_nets, c.row_bus, trace.row_of(a), k))
        return err;
      if (auto err = check_one_hot(ws, col_nets, c.col_bus, trace.col_of(a), k))
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

    BuildResult built = entry ? entry->build(trace, opt) : BuildResult{std::string()};
    Candidate* c = std::get_if<Candidate>(&built);
    if (!c) {
      // A feasible front point whose candidate does not rebuild should not
      // happen; record it visibly rather than passing it silently.
      p.note += " [verify skipped: candidate did not rebuild]";
      ++tally.skipped;
      continue;
    }
    // Replay the netlist that was scored, not the raw elaboration.
    prepare_scored_netlist(c->netlist, opt.max_fanout);

    if (auto err = verify_candidate(*c, trace)) {
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
