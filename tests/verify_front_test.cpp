// Tests for the --verify-front exploration stage (core/verify.hpp): Pareto
// points get deterministic verification verdicts appended to their notes,
// non-front points are untouched, failures are reported (not thrown), every
// scored (buffered) netlist replays its trace, the segment replay agrees
// with a straightforward replicated-lane replay on verdicts and diagnostics
// (stock candidates, single-gate mutants, awkward trace lengths), and the
// options fingerprint stays pinned for the default options.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "core/batch_explorer.hpp"
#include "core/explorer.hpp"
#include "core/fingerprint.hpp"
#include "core/metrics.hpp"
#include "core/verify.hpp"
#include "netlist/builder.hpp"
#include "seq/workloads.hpp"
#include "sim/word_simulator.hpp"

namespace addm::core {
namespace {

using sim::WordSimulator;

/// Reference replay: the stimulus replicated into all 64 lanes, one trace
/// cycle per step, the expected line at kAllLanes and every other line at 0
/// on the row bus and then the column bus.  verify_candidate must agree with
/// it on the verdict and, on failure, on the diagnostic.
std::optional<std::string> check_one_hot(const WordSimulator& ws,
                                         const std::vector<netlist::NetId>& nets,
                                         const std::string& bus, std::size_t expected,
                                         std::size_t cycle) {
  std::ostringstream os;
  if (expected >= nets.size()) {
    os << "cycle " << cycle << ": expected " << bus << "[" << expected
       << "] but the bus has only " << nets.size() << " lines";
    return os.str();
  }
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const std::uint64_t want = i == expected ? WordSimulator::kAllLanes : 0;
    const std::uint64_t got = ws.word(nets[i]);
    if (got == want) continue;
    os << "cycle " << cycle << ": " << bus << "[" << i << "] lanes 0x" << std::hex << got
       << std::dec << ", expected " << (want ? "all ones" : "all zeros")
       << " (hot line should be " << expected << ")";
    return os.str();
  }
  return std::nullopt;
}

std::optional<std::string> replicated_replay(const Candidate& c,
                                             const seq::AddressTrace& trace) {
  WordSimulator ws(c.netlist);
  const auto row_nets = c.netlist.output_bus(c.row_bus);
  if (row_nets.empty()) return "netlist has no output bus " + c.row_bus;
  std::vector<netlist::NetId> col_nets;
  if (!c.col_bus.empty()) {
    col_nets = c.netlist.output_bus(c.col_bus);
    if (col_nets.empty()) return "netlist has no output bus " + c.col_bus;
  }
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
      if (auto err = check_one_hot(ws, row_nets, c.row_bus, trace.row_of(a), k)) return err;
      if (auto err = check_one_hot(ws, col_nets, c.col_bus, trace.col_of(a), k)) return err;
    }
    ws.step();
  }
  return std::nullopt;
}

/// Indices of the combinational cells in the fan-in of some flip-flop pin.
std::set<std::size_t> next_state_cone(const netlist::Netlist& nl) {
  std::vector<bool> needed(nl.num_nets(), false);
  for (const netlist::Cell& cell : nl.cells())
    if (netlist::traits(cell.type).sequential)
      for (netlist::NetId in : cell.inputs) needed[in] = true;
  const auto order = nl.topo_order();
  std::set<std::size_t> cone;
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const netlist::Cell& cell = nl.cell(*it);
    if (!needed[cell.output]) continue;
    cone.insert(*it);
    for (netlist::NetId in : cell.inputs) needed[in] = true;
  }
  return cone;
}

/// Every feasible candidate of `trace`, as the explorer scores it.
std::vector<std::pair<std::string, Candidate>> scored_candidates(
    const seq::AddressTrace& trace, const ExploreOptions& opt) {
  std::vector<std::pair<std::string, Candidate>> out;
  for (const GeneratorEntry& e : generator_registry()) {
    if (!e.applicable(trace, opt)) continue;
    BuildResult built;
    try {
      built = e.build(trace, opt);
    } catch (const std::invalid_argument&) {
      continue;  // degenerate trace (e.g. a one-access counter)
    }
    if (Candidate* c = std::get_if<Candidate>(&built)) {
      prepare_scored_netlist(c->netlist, opt.max_fanout);
      out.emplace_back(e.name, std::move(*c));
    }
  }
  return out;
}

TEST(VerifyFront, AnnotatesOnlyParetoPoints) {
  const auto trace = seq::block_raster({8, 8}, 4, 4);
  ExploreOptions off;
  ExploreOptions on;
  on.verify_front = true;

  const auto base = explore_generators(trace, off);
  const auto verified = explore_generators(trace, on);
  ASSERT_EQ(base.size(), verified.size());

  const auto front = pareto_front(base);
  ASSERT_FALSE(front.empty());
  const std::set<std::size_t> on_front(front.begin(), front.end());
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (on_front.count(i)) {
      EXPECT_EQ(verified[i].note.rfind(base[i].note, 0), 0u)
          << verified[i].architecture << ": verdict must append, not rewrite";
      EXPECT_NE(verified[i].note.find("[verified:"), std::string::npos)
          << verified[i].architecture << ": " << verified[i].note;
      EXPECT_EQ(verified[i].note.find("FAILED"), std::string::npos)
          << verified[i].architecture << ": " << verified[i].note;
    } else {
      EXPECT_EQ(verified[i].note, base[i].note) << verified[i].architecture;
    }
  }
}

TEST(VerifyFront, EveryScoredNetlistMatchesItsTrace) {
  // Registry-wide, not just the front: every feasible candidate of the
  // stock suite at three geometries is taken through measure_netlist (the
  // netlist the explorer scores, buffers included) and replayed against its
  // trace, by the segment replay and by the replicated reference.
  // Cross-checking against explore_generators pins that the replayed
  // netlist is the scored one.
  const ExploreOptions opt;
  std::size_t checked = 0;
  for (const seq::ArrayGeometry g : {seq::ArrayGeometry{8, 8}, seq::ArrayGeometry{16, 16},
                                     seq::ArrayGeometry{32, 32}}) {
    for (const seq::AddressTrace& trace : seq::standard_suite(g)) {
      const std::vector<DesignPoint> points = explore_generators(trace, opt);
      std::size_t slot = 0;
      for (const GeneratorEntry& e : generator_registry()) {
        if (!e.applicable(trace, opt)) continue;
        ASSERT_LT(slot, points.size()) << trace.name();
        const DesignPoint& scored = points[slot++];
        BuildResult built = e.build(trace, opt);
        Candidate* c = std::get_if<Candidate>(&built);
        ASSERT_EQ(c != nullptr, scored.feasible) << trace.name() << " " << e.name;
        if (!c) continue;
        const GeneratorMetrics m = measure_netlist(c->netlist, opt.library, opt.max_fanout);
        EXPECT_EQ(m.area_units, scored.metrics.area_units) << trace.name() << " " << e.name;
        EXPECT_EQ(m.buffers_added, scored.metrics.buffers_added)
            << trace.name() << " " << e.name;
        const auto err = verify_candidate(*c, trace);
        EXPECT_FALSE(err.has_value())
            << trace.name() << " " << e.name << ": " << err.value_or("");
        EXPECT_EQ(err, replicated_replay(*c, trace)) << trace.name() << " " << e.name;
        ++checked;
      }
      EXPECT_EQ(slot, points.size()) << trace.name();
    }
  }
  // 201 of the 27 traces x 9 candidates are feasible; a drop means some
  // scored netlists went unchecked.
  EXPECT_EQ(checked, 201u);
}

/// Stuck-at-0/1 mutants of one input pin of seeded combinational cells,
/// inside and outside the next-state cone.  Both replays must return the
/// same verdict and the same diagnostic; returns how many mutants of each
/// kind {in cone, outside cone} were caught.
std::pair<std::size_t, std::size_t> compare_mutants(const Candidate& c,
                                                    const seq::AddressTrace& trace,
                                                    std::mt19937& rng, std::size_t per_kind) {
  const std::set<std::size_t> cone = next_state_cone(c.netlist);
  std::vector<std::size_t> inside, outside;
  for (std::size_t i = 0; i < c.netlist.cells().size(); ++i) {
    if (netlist::traits(c.netlist.cell(i).type).sequential) continue;
    (cone.count(i) ? inside : outside).push_back(i);
  }
  std::pair<std::size_t, std::size_t> caught{0, 0};
  for (std::vector<std::size_t>* pool : {&inside, &outside}) {
    std::shuffle(pool->begin(), pool->end(), rng);
    for (std::size_t m = 0; m < std::min(per_kind, pool->size()); ++m) {
      const std::size_t cell = (*pool)[m];
      const netlist::Cell& orig = c.netlist.cell(cell);
      const int pin = static_cast<int>(rng() % orig.inputs.size());
      Candidate mutant = c;
      mutant.netlist.set_cell_input(cell, pin, rng() & 1 ? netlist::kConst1 : netlist::kConst0);
      const auto got = verify_candidate(mutant, trace);
      const auto want = replicated_replay(mutant, trace);
      EXPECT_EQ(got, want) << trace.name() << " cell " << cell << " pin " << pin
                           << (pool == &inside ? " (in cone)" : " (outside cone)");
      if (want) ++(pool == &inside ? caught.first : caught.second);
    }
  }
  return caught;
}

TEST(VerifyFront, SegmentReplayAgreesOnSingleGateMutants) {
  const ExploreOptions opt;
  std::mt19937 rng(0x3a7au);
  std::size_t in_cone = 0, outside = 0;
  for (const seq::ArrayGeometry g : {seq::ArrayGeometry{8, 8}, seq::ArrayGeometry{16, 16}}) {
    for (const seq::AddressTrace& trace : seq::standard_suite(g)) {
      for (const auto& [name, c] : scored_candidates(trace, opt)) {
        SCOPED_TRACE(name);
        const auto [a, b] = compare_mutants(c, trace, rng, 3);
        in_cone += a;
        outside += b;
      }
    }
  }
  // Both kinds must actually fail somewhere, or the comparison is vacuous.
  EXPECT_GT(in_cone, 150u);
  EXPECT_GT(outside, 150u);
}

TEST(VerifyFront, SegmentReplayAgreesAcrossSegmentBoundaries) {
  // Lengths around multiples of the 64 lanes: one cycle, one short of a
  // full lane row, exactly one, one over, and the same around two.
  const ExploreOptions opt;
  std::mt19937 rng(0x5e9u);
  std::size_t caught = 0;
  for (const std::size_t length : {1u, 63u, 64u, 65u, 127u, 129u}) {
    std::vector<std::uint32_t> addrs(length);
    for (std::uint32_t& a : addrs) a = rng() % 64;
    const seq::AddressTrace trace({8, 8}, addrs, "random" + std::to_string(length));
    const auto candidates = scored_candidates(trace, opt);
    EXPECT_GE(candidates.size(), 2u) << trace.name();
    for (const auto& [name, c] : candidates) {
      SCOPED_TRACE(trace.name() + " " + name);
      const auto ok = verify_candidate(c, trace);
      EXPECT_FALSE(ok.has_value()) << ok.value_or("");
      EXPECT_EQ(ok, replicated_replay(c, trace));
      const auto [a, b] = compare_mutants(c, trace, rng, 4);
      caught += a + b;
    }
  }
  EXPECT_GT(caught, 100u);
}

TEST(VerifyFront, ReportsMismatchWithCycleDiagnostics) {
  // A "generator" whose select lines are stuck at line 0: correct for the
  // first access of a raster trace, wrong as soon as the address moves.
  Candidate c;
  netlist::NetlistBuilder b(c.netlist);
  b.input("reset");
  b.input("next");
  const std::vector<netlist::NetId> stuck = {netlist::kConst1, netlist::kConst0,
                                             netlist::kConst0, netlist::kConst0};
  b.output_bus("rs", stuck);
  b.output_bus("cs", stuck);

  const auto trace = seq::block_raster({4, 4}, 2, 2);
  const auto err = verify_candidate(c, trace);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("cycle"), std::string::npos) << *err;

  // A missing bus is its own diagnostic, not a crash.
  Candidate no_bus = c;
  no_bus.row_bus = "zz";
  const auto err2 = verify_candidate(no_bus, trace);
  ASSERT_TRUE(err2.has_value());
  EXPECT_NE(err2->find("no output bus"), std::string::npos) << *err2;
}

TEST(VerifyFront, FingerprintPinnedWhenDisabledDistinctWhenEnabled) {
  const ExploreOptions def;
  ExploreOptions off;
  off.verify_front = false;
  ExploreOptions on;
  on.verify_front = true;
  EXPECT_EQ(options_fingerprint(def), options_fingerprint(off));
  EXPECT_NE(options_fingerprint(def), options_fingerprint(on));
}

TEST(VerifyFront, BatchReportDeterministicAcrossThreads) {
  const auto traces = seq::scaled_suite({8, 8}, 1);

  BatchOptions serial;
  serial.threads = 1;
  serial.explore.verify_front = true;
  BatchOptions threaded;
  threaded.threads = 4;
  threaded.explore.verify_front = true;

  BatchExplorer a(serial);
  BatchExplorer b(threaded);
  const std::string ra = batch_report_csv(a.run(traces));
  const std::string rb = batch_report_csv(b.run(traces));
  EXPECT_EQ(ra, rb);
  EXPECT_NE(ra.find("[verified:"), std::string::npos);
  EXPECT_EQ(ra.find("FAILED"), std::string::npos);
}

}  // namespace
}  // namespace addm::core
