#include "core/verify.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "core/metrics.hpp"
#include "sim/word_simulator.hpp"

namespace addm::core {

namespace {

using sim::WordSimulator;

/// One select bus under check: its nets, the line an address selects on it,
/// and per-cycle scratch for the expected lane words.
struct SelectBus {
  const std::string& name;
  std::vector<netlist::NetId> nets;
  std::uint32_t (*line_of)(const seq::AddressTrace&, std::uint32_t);
  std::vector<std::uint64_t> want;
};

/// Lanes among `live` whose bus differs from the trace at segment cycle `j`
/// (lane l replays trace cycle l*seg + j).  A lane whose expected line lies
/// beyond the bus always fails.
std::uint64_t mismatched_lanes(const WordSimulator& ws, SelectBus& bus,
                               const seq::AddressTrace& trace, std::size_t seg,
                               std::size_t j, std::uint64_t live) {
  std::fill(bus.want.begin(), bus.want.end(), 0);
  std::uint64_t bad = 0;
  for (std::uint64_t rest = live; rest; rest &= rest - 1) {
    const int lane = std::countr_zero(rest);
    const std::uint32_t e =
        bus.line_of(trace, trace.linear()[static_cast<std::size_t>(lane) * seg + j]);
    if (e < bus.nets.size())
      bus.want[e] |= std::uint64_t{1} << lane;
    else
      bad |= std::uint64_t{1} << lane;
  }
  for (std::size_t i = 0; i < bus.nets.size(); ++i)
    bad |= (ws.word(bus.nets[i]) ^ bus.want[i]) & live;
  return bad;
}

/// The diagnostic for one lane at trace cycle `cycle`, worded as a replay
/// with that lane's stimulus in all 64 lanes would word it: the first
/// out-of-range or wrong line of the bus, lowest line first.
std::optional<std::string> diagnose(const WordSimulator& ws, const SelectBus& bus,
                                    std::size_t expected, std::size_t lane,
                                    std::size_t cycle) {
  if (expected >= bus.nets.size()) {
    std::ostringstream os;
    os << "cycle " << cycle << ": expected " << bus.name << "[" << expected
       << "] but the bus has only " << bus.nets.size() << " lines";
    return os.str();
  }
  for (std::size_t i = 0; i < bus.nets.size(); ++i) {
    const bool got = ws.value(bus.nets[i], lane);
    if (got == (i == expected)) continue;
    std::ostringstream os;
    os << "cycle " << cycle << ": " << bus.name << "[" << i << "] lanes 0x" << std::hex
       << (got ? WordSimulator::kAllLanes : 0) << std::dec << ", expected "
       << (got ? "all zeros" : "all ones") << " (hot line should be " << expected << ")";
    return os.str();
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> verify_candidate(const Candidate& c,
                                            const seq::AddressTrace& trace) {
  WordSimulator ws(c.netlist);

  std::vector<SelectBus> buses;
  buses.push_back({c.row_bus, c.netlist.output_bus(c.row_bus),
                   [](const seq::AddressTrace&, std::uint32_t a) { return a; }, {}});
  if (!c.col_bus.empty()) {
    buses[0].line_of = [](const seq::AddressTrace& t, std::uint32_t a) {
      return t.row_of(a);
    };
    buses.push_back({c.col_bus, c.netlist.output_bus(c.col_bus),
                     [](const seq::AddressTrace& t, std::uint32_t a) {
                       return t.col_of(a);
                     },
                     {}});
  }
  for (SelectBus& bus : buses) {
    if (bus.nets.empty()) return "netlist has no output bus " + bus.name;
    bus.want.resize(bus.nets.size());
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

  // Lane l replays trace cycles [l*seg, (l+1)*seg): `segments` lanes carry
  // the trace, the last one possibly short.
  const std::size_t length = trace.length();
  if (length == 0) return std::nullopt;
  const std::size_t seg = (length + WordSimulator::kLanes - 1) / WordSimulator::kLanes;
  const std::size_t segments = (length + seg - 1) / seg;
  const std::uint64_t used = segments == WordSimulator::kLanes
                                 ? WordSimulator::kAllLanes
                                 : (std::uint64_t{1} << segments) - 1;

  // Pass 1: serial state-only replay; lane 0's state at cycle s*seg becomes
  // bit s of every flip-flop's seed word.
  std::vector<std::uint64_t> seed(ws.num_flipflops(), 0);
  for (std::size_t s = 0; s < segments; ++s) {
    if (s > 0)
      for (std::size_t i = 0; i < seg; ++i) ws.step_state();
    for (std::size_t f = 0; f < seed.size(); ++f)
      seed[f] |= (ws.flipflop_word(f) & 1) << s;
  }

  // Pass 2: every segment at once, from its seed.  The earliest failure in
  // trace order is the first one of the lowest failing lane; a lane below
  // `first_lane` that fails now cannot have failed before.
  for (std::size_t f = 0; f < seed.size(); ++f) ws.set_flipflop_word(f, seed[f]);
  ws.eval();
  std::size_t first_lane = WordSimulator::kLanes;
  std::string first_err;
  for (std::size_t j = 0; j < seg; ++j) {
    std::uint64_t live = used;
    if ((segments - 1) * seg + j >= length) live &= ~(std::uint64_t{1} << (segments - 1));
    std::uint64_t bad = 0;
    for (SelectBus& bus : buses) bad |= mismatched_lanes(ws, bus, trace, seg, j, live);
    if (bad && static_cast<std::size_t>(std::countr_zero(bad)) < first_lane) {
      first_lane = static_cast<std::size_t>(std::countr_zero(bad));
      const std::size_t k = first_lane * seg + j;
      for (const SelectBus& bus : buses)
        if (auto err = diagnose(ws, bus, bus.line_of(trace, trace.linear()[k]),
                                first_lane, k)) {
          first_err = std::move(*err);
          break;
        }
    }
    ws.step();
  }

  // Seam check: each segment must end in the state the next one started
  // from, so the lanes stitch into one replay from reset.  A failure before
  // the first broken seam is still genuine.
  const std::uint64_t seams = used >> 1;
  std::size_t seam_lane = WordSimulator::kLanes, seam_ff = 0;
  for (std::size_t f = 0; f < seed.size(); ++f) {
    const std::uint64_t diff = (ws.flipflop_word(f) ^ (seed[f] >> 1)) & seams;
    if (diff && static_cast<std::size_t>(std::countr_zero(diff)) < seam_lane) {
      seam_lane = static_cast<std::size_t>(std::countr_zero(diff));
      seam_ff = f;
    }
  }
  if (first_lane <= seam_lane && first_lane < WordSimulator::kLanes) return first_err;
  if (seam_lane < WordSimulator::kLanes) {
    std::ostringstream os;
    os << "cycle " << (seam_lane + 1) * seg << ": flip-flop " << seam_ff
       << " differs across the seam between lanes " << seam_lane << " and "
       << seam_lane + 1;
    return os.str();
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
