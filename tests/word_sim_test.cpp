// Equivalence and unit tests for the levelized 64-lane word simulator: on
// randomized netlists (every cell type, flip-flop feedback included) each
// lane of sim::WordSimulator must be bit-identical to a scalar
// sim::Simulator driven with that lane's stimulus — outputs and toggle
// counts alike — both with one stimulus replicated across all lanes and
// with 64 distinct per-lane streams.  Plus levelizer structure tests, a
// generator-netlist replay, and the state-only surface (step_state and the
// flip-flop accessors) checked against full steps on random netlists and on
// every registry netlist of the standard suite.
//
// PRNGs are seeded, so failures reproduce deterministically.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <variant>
#include <vector>

#include "core/cntag.hpp"
#include "core/explorer.hpp"
#include "netlist/builder.hpp"
#include "netlist/levelize.hpp"
#include "seq/workloads.hpp"
#include "sim/simulator.hpp"
#include "sim/word_simulator.hpp"

namespace addm::sim {
namespace {

using netlist::CellType;
using netlist::kConst0;
using netlist::kConst1;
using netlist::NetId;
using netlist::Netlist;
using netlist::NetlistBuilder;

/// A random netlist over every cell type: primary inputs, pre-created
/// flip-flop state nets (so combinational logic can read state feedback),
/// a layer of random combinational cells (acyclic by construction: cells
/// only read already-created nets), then the flip-flops themselves reading
/// arbitrary nets.  Returns the netlist and its input nets.
struct RandomCircuit {
  Netlist nl;
  std::vector<NetId> inputs;
};

RandomCircuit random_circuit(std::mt19937& rng, std::size_t num_cells) {
  RandomCircuit c;
  NetlistBuilder b(c.nl);
  b.set_sharing(false);

  std::uniform_int_distribution<int> in_dist(3, 6);
  std::uniform_int_distribution<int> ff_dist(2, 5);
  c.inputs = b.input_bus("in", in_dist(rng));

  std::vector<NetId> ffq(static_cast<std::size_t>(ff_dist(rng)));
  for (NetId& q : ffq) q = c.nl.new_net();

  std::vector<NetId> pool = {kConst0, kConst1};
  pool.insert(pool.end(), c.inputs.begin(), c.inputs.end());
  pool.insert(pool.end(), ffq.begin(), ffq.end());

  auto pick = [&]() { return pool[rng() % pool.size()]; };
  auto random_inputs = [&](CellType t) {
    std::vector<NetId> ins(netlist::traits(t).num_inputs);
    for (NetId& n : ins) n = pick();
    return ins;
  };

  const CellType comb_types[] = {CellType::Inv,  CellType::Buf,  CellType::Nand2,
                                 CellType::Nor2, CellType::And2, CellType::Or2,
                                 CellType::Xor2, CellType::Xnor2, CellType::Mux2};
  for (std::size_t i = 0; i < num_cells; ++i) {
    const CellType t = comb_types[rng() % std::size(comb_types)];
    const NetId out = c.nl.new_net();
    c.nl.add_cell(t, random_inputs(t), out);
    pool.push_back(out);
  }

  const CellType seq_types[] = {CellType::Dff,  CellType::DffR,  CellType::DffS,
                                CellType::DffE, CellType::DffER, CellType::DffES};
  for (std::size_t k = 0; k < ffq.size(); ++k) {
    const CellType t = seq_types[rng() % std::size(seq_types)];
    c.nl.add_cell(t, random_inputs(t), ffq[k]);
  }

  // A few named outputs so bus helpers have something to address.
  for (int i = 0; i < 4; ++i)
    c.nl.add_output("out[" + std::to_string(i) + "]", pick());
  return c;
}

TEST(WordSimulator, MatchesScalarWithReplicatedStimulus) {
  std::mt19937 rng(0x5eedau);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    RandomCircuit c = random_circuit(rng, 40 + rng() % 80);
    ASSERT_TRUE(c.nl.validate().empty());

    Simulator s(c.nl);
    WordSimulator w(c.nl);
    s.enable_toggle_counting();
    w.enable_toggle_counting();

    for (int step = 0; step < 24; ++step) {
      for (NetId in : c.inputs) {
        const bool v = rng() & 1;
        s.set_input(in, v);
        w.set_input(in, v ? WordSimulator::kAllLanes : 0);
      }
      s.step();
      w.step();
      for (NetId n = 0; n < c.nl.num_nets(); ++n) {
        const std::uint64_t want = s.value(n) ? WordSimulator::kAllLanes : 0;
        ASSERT_EQ(w.word(n), want) << "net " << n << " step " << step;
      }
    }
    for (NetId n = 0; n < c.nl.num_nets(); ++n)
      ASSERT_EQ(w.toggles()[n], WordSimulator::kLanes * s.toggles()[n]) << "net " << n;
  }
}

TEST(WordSimulator, MatchesScalarWithDistinctPerLaneStimuli) {
  std::mt19937 rng(0xface5u);
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    RandomCircuit c = random_circuit(rng, 30 + rng() % 50);
    ASSERT_TRUE(c.nl.validate().empty());

    std::vector<Simulator> lanes;
    lanes.reserve(WordSimulator::kLanes);
    for (std::size_t l = 0; l < WordSimulator::kLanes; ++l) lanes.emplace_back(c.nl);
    WordSimulator w(c.nl);
    for (Simulator& s : lanes) s.enable_toggle_counting();
    w.enable_toggle_counting();

    for (int step = 0; step < 12; ++step) {
      for (NetId in : c.inputs) {
        std::uint64_t word = (std::uint64_t{rng()} << 32) | rng();
        w.set_input(in, word);
        for (std::size_t l = 0; l < lanes.size(); ++l)
          lanes[l].set_input(in, (word >> l) & 1);
      }
      w.step();
      for (Simulator& s : lanes) s.step();
      for (NetId n = 0; n < c.nl.num_nets(); ++n)
        for (std::size_t l = 0; l < lanes.size(); ++l)
          ASSERT_EQ(w.value(n, l), lanes[l].value(n))
              << "net " << n << " lane " << l << " step " << step;
    }
    for (NetId n = 0; n < c.nl.num_nets(); ++n) {
      std::uint64_t sum = 0;
      for (const Simulator& s : lanes) sum += s.toggles()[n];
      ASSERT_EQ(w.toggles()[n], sum) << "net " << n;
    }
  }
}

TEST(WordSimulator, StepAfterEverySetterMatchesScalar) {
  // step() skips its leading eval() unless an input setter ran since the last
  // eval().  Drive inputs through every setter, interleaved with single steps
  // and with runs of several steps that change nothing, and compare every
  // lane against a scalar simulator fed the same stimulus.
  std::mt19937 rng(0xd1e7u);
  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    RandomCircuit c = random_circuit(rng, 30 + rng() % 50);
    ASSERT_TRUE(c.nl.validate().empty());
    const std::size_t width = c.inputs.size();

    std::vector<Simulator> lanes;
    lanes.reserve(WordSimulator::kLanes);
    for (std::size_t l = 0; l < WordSimulator::kLanes; ++l) lanes.emplace_back(c.nl);
    WordSimulator w(c.nl);
    for (Simulator& s : lanes) s.enable_toggle_counting();
    w.enable_toggle_counting();

    for (int round = 0; round < 40; ++round) {
      const std::size_t bit = rng() % width;
      const std::string name = "in[" + std::to_string(bit) + "]";
      const std::uint64_t word = (std::uint64_t{rng()} << 32) | rng();
      switch (rng() % 6) {
        case 0:
          w.set_input(c.inputs[bit], word);
          for (std::size_t l = 0; l < lanes.size(); ++l)
            lanes[l].set_input(c.inputs[bit], (word >> l) & 1);
          break;
        case 1:
          w.set(name, word);
          for (std::size_t l = 0; l < lanes.size(); ++l) lanes[l].set(name, (word >> l) & 1);
          break;
        case 2:
          w.set_all(name, word & 1);
          for (Simulator& s : lanes) s.set(name, word & 1);
          break;
        case 3: {
          const std::uint64_t value = word & ((std::uint64_t{1} << width) - 1);
          w.set_bus("in", value);
          for (Simulator& s : lanes) s.set_bus("in", value);
          break;
        }
        case 4: {
          const std::size_t lane = rng() % WordSimulator::kLanes;
          const std::uint64_t value = word & ((std::uint64_t{1} << width) - 1);
          w.set_bus_lane("in", lane, value);
          lanes[lane].set_bus("in", value);
          break;
        }
        default:
          break;  // no setter: the next steps hold every input
      }
      const int steps = 1 + static_cast<int>(rng() % 4);
      for (int k = 0; k < steps; ++k) {
        w.step();
        for (Simulator& s : lanes) s.step();
        for (std::size_t l = 0; l < lanes.size(); ++l) {
          ASSERT_EQ(w.get_bus("out", l), lanes[l].get_bus("out"))
              << "lane " << l << " round " << round;
          for (NetId n = 0; n < c.nl.num_nets(); ++n)
            ASSERT_EQ(w.value(n, l), lanes[l].value(n))
                << "net " << n << " lane " << l << " round " << round;
        }
      }
    }
    EXPECT_EQ(w.cycles(), lanes[0].cycles());
    for (NetId n = 0; n < c.nl.num_nets(); ++n) {
      std::uint64_t sum = 0;
      for (const Simulator& s : lanes) sum += s.toggles()[n];
      ASSERT_EQ(w.toggles()[n], sum) << "net " << n;
    }
  }
}

TEST(WordSimulator, ReplaysGeneratorNetlistInEveryLane) {
  const auto trace = seq::block_raster({8, 8}, 4, 4);
  netlist::Netlist nl = core::elaborate_cntag(trace, {});
  WordSimulator w(nl);
  w.set_all("reset", true);
  w.set_all("next", false);
  w.step();
  w.set_all("reset", false);
  w.set_all("next", true);
  for (std::size_t k = 0; k < trace.length() + 3; ++k) {
    const std::uint32_t a = trace.linear()[k % trace.length()];
    for (std::size_t lane : {std::size_t{0}, std::size_t{31}, std::size_t{63}}) {
      EXPECT_EQ(w.get_bus("ra", lane), trace.row_of(a)) << "access " << k;
      EXPECT_EQ(w.hot_index("rs", lane), trace.row_of(a)) << "access " << k;
      EXPECT_EQ(w.hot_index("cs", lane), trace.col_of(a)) << "access " << k;
    }
    w.step();
  }
}

/// Flip-flop words of `w`, in Levelization::seq order.
std::vector<std::uint64_t> flipflop_words(const WordSimulator& w) {
  std::vector<std::uint64_t> q(w.num_flipflops());
  for (std::size_t k = 0; k < q.size(); ++k) q[k] = w.flipflop_word(k);
  return q;
}

/// The replay recipe of core::verify_candidate: one reset cycle with the
/// drive inputs low, then reset released and `drive` held.
void reset_and_drive(WordSimulator& w, const core::Candidate& c) {
  w.set_all("reset", true);
  for (const auto& [name, value] : c.drive) {
    (void)value;
    w.set_all(name, false);
  }
  w.step();
  w.set_all("reset", false);
  for (const auto& [name, value] : c.drive) w.set_all(name, value);
}

TEST(WordSimulator, StepStateMatchesStepOnRandomNetlists) {
  // Distinct per-lane inputs, changed before some steps and held across
  // others; after every k-th step_state() the flip-flop words equal those
  // after k step() calls, and an eval() brings every other net up to date.
  std::mt19937 rng(0x57a7eu);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    RandomCircuit c = random_circuit(rng, 40 + rng() % 80);
    WordSimulator full(c.nl);
    WordSimulator fast(c.nl);
    ASSERT_EQ(fast.num_flipflops(), c.nl.stats().num_seq);
    for (int k = 1; k <= 24; ++k) {
      if (rng() % 3 != 0) {
        for (NetId in : c.inputs) {
          const std::uint64_t word = (std::uint64_t{rng()} << 32) | rng();
          full.set_input(in, word);
          fast.set_input(in, word);
        }
      }
      full.step();
      fast.step_state();
      ASSERT_EQ(flipflop_words(fast), flipflop_words(full)) << "step " << k;
      EXPECT_EQ(fast.cycles(), full.cycles());
      if (k % 5 == 0) {
        // A full step after step_state() starts from the refreshed nets.
        fast.eval();
        for (NetId n = 0; n < c.nl.num_nets(); ++n)
          ASSERT_EQ(fast.word(n), full.word(n)) << "net " << n << " step " << k;
        full.step();
        fast.step();
        for (NetId n = 0; n < c.nl.num_nets(); ++n)
          ASSERT_EQ(fast.word(n), full.word(n)) << "net " << n << " step " << k;
      }
    }
  }
}

TEST(WordSimulator, StepStateMatchesStepOnRegistryNetlists) {
  // Every buildable registry candidate of the standard suite at 8x8 and
  // 16x16, replayed as core::verify_candidate drives it.
  const core::ExploreOptions opt;
  std::size_t netlists = 0;
  for (const seq::ArrayGeometry g : {seq::ArrayGeometry{8, 8}, seq::ArrayGeometry{16, 16}}) {
    for (const seq::AddressTrace& trace : seq::standard_suite(g)) {
      for (const core::GeneratorEntry& e : core::generator_registry()) {
        if (!e.applicable(trace, opt)) continue;
        core::BuildResult built = e.build(trace, opt);
        const core::Candidate* c = std::get_if<core::Candidate>(&built);
        if (!c) continue;
        SCOPED_TRACE(trace.name() + " " + e.name);
        WordSimulator full(c->netlist);
        WordSimulator fast(c->netlist);
        reset_and_drive(full, *c);
        reset_and_drive(fast, *c);
        for (std::size_t k = 1; k <= trace.length(); ++k) {
          full.step();
          fast.step_state();
          ASSERT_EQ(flipflop_words(fast), flipflop_words(full)) << "step " << k;
        }
        ++netlists;
      }
    }
  }
  EXPECT_GT(netlists, 100u);
}

TEST(WordSimulator, PerLaneFlipFlopStatesMatchReplicatedReplay) {
  // Lane l is loaded with the state a replicated replay reaches after l
  // cycles; one eval() must then put every net of lane l where that replay
  // had it.
  const auto trace = seq::block_raster({8, 8}, 4, 4);
  core::Candidate c;
  c.netlist = core::elaborate_cntag(trace, {});
  std::mt19937 rng(0x1a4e5u);
  RandomCircuit rc = random_circuit(rng, 80);

  for (const Netlist* nl : {&c.netlist, &rc.nl}) {
    WordSimulator ref(*nl);
    if (nl == &c.netlist) {
      reset_and_drive(ref, c);
    } else {
      for (NetId in : rc.inputs) ref.set_input(in, rng() & 1 ? WordSimulator::kAllLanes : 0);
      ref.eval();
    }
    std::vector<std::vector<std::uint64_t>> states, nets;
    for (std::size_t l = 0; l < WordSimulator::kLanes; ++l) {
      ref.eval();
      states.push_back(flipflop_words(ref));
      std::vector<std::uint64_t> all(nl->num_nets());
      for (NetId n = 0; n < all.size(); ++n) all[n] = ref.word(n);
      nets.push_back(std::move(all));
      ref.step();
    }

    WordSimulator w(*nl);
    for (NetId in : nl->inputs()) w.set_input(in, ref.word(in));
    for (std::size_t k = 0; k < w.num_flipflops(); ++k) {
      std::uint64_t word = 0;
      for (std::size_t l = 0; l < WordSimulator::kLanes; ++l)
        word |= (states[l][k] & 1) << l;
      w.set_flipflop_word(k, word);
      EXPECT_EQ(w.flipflop_word(k), word);
    }
    w.eval();
    for (std::size_t l = 0; l < WordSimulator::kLanes; ++l)
      for (NetId n = 0; n < nl->num_nets(); ++n)
        ASSERT_EQ(w.value(n, l), (nets[l][n] & 1) != 0) << "net " << n << " lane " << l;
  }
}

TEST(WordSimulator, PowerOnResetRestartsTogglesAndCycles) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId q = nl.new_net();
  nl.add_cell(CellType::Dff, {b.inv(q)}, q);
  nl.add_output("q", q);
  WordSimulator w(nl);
  w.enable_toggle_counting();
  w.run(6);
  EXPECT_EQ(w.toggles()[q], 6 * WordSimulator::kLanes);
  w.power_on_reset();
  EXPECT_EQ(w.cycles(), 0u);
  EXPECT_EQ(w.toggles()[q], 0u);
  w.run(3);
  EXPECT_EQ(w.toggles()[q], 3 * WordSimulator::kLanes);
}

TEST(WordSimulator, BusAndLaneHelpers) {
  Netlist nl;
  NetlistBuilder b(nl);
  const auto in = b.input_bus("d", 4);
  std::vector<NetId> qs;
  for (auto n : in) qs.push_back(b.dff(n));
  b.output_bus("q", qs);
  WordSimulator w(nl);
  w.set_bus("d", 0b1010);
  w.step();
  EXPECT_EQ(w.get_bus("q", 0), 0b1010u);
  EXPECT_EQ(w.get_bus("q", 63), 0b1010u);
  w.set_bus_lane("d", 5, 0b0110);
  w.step();
  EXPECT_EQ(w.get_bus("q", 5), 0b0110u);
  EXPECT_EQ(w.get_bus("q", 4), 0b1010u);  // other lanes untouched
  EXPECT_THROW(w.set_bus("nope", 1), std::invalid_argument);
  EXPECT_THROW(w.set_bus("d", 0b10000), std::invalid_argument);  // 5 bits, 4-bit bus
  EXPECT_THROW(w.set_bus_lane("d", 64, 0), std::invalid_argument);
}

TEST(WordSimulator, RejectsCombinationalLoop) {
  Netlist nl;
  const NetId a = nl.new_net();
  const NetId y = nl.new_net();
  nl.add_cell(CellType::Inv, {a}, y);
  nl.add_cell(CellType::Inv, {y}, a);
  EXPECT_THROW(WordSimulator w(nl), std::invalid_argument);
}

TEST(Levelize, AssignsMonotoneLevels) {
  std::mt19937 rng(0x1e7e1u);
  RandomCircuit c = random_circuit(rng, 60);
  const auto lev = netlist::levelize(c.nl);
  ASSERT_TRUE(lev.has_value());

  // Every combinational op sits one level above its deepest input, the
  // stream is level-major, and op count equals the combinational cell count.
  EXPECT_EQ(lev->comb.size(), c.nl.stats().num_comb);
  EXPECT_EQ(lev->seq.size(), c.nl.stats().num_seq);
  EXPECT_EQ(lev->level_begin.front(), 0u);
  EXPECT_EQ(lev->level_begin.back(), lev->comb.size());
  for (std::size_t l = 0; l < lev->num_levels(); ++l) {
    for (std::size_t i = lev->level_begin[l]; i < lev->level_begin[l + 1]; ++i) {
      const netlist::FlatOp& op = lev->comb[i];
      EXPECT_EQ(lev->net_level[op.out], l + 1);
      std::uint32_t deepest = 0;
      for (int p = 0; p < netlist::traits(op.type).num_inputs; ++p) {
        EXPECT_LT(lev->net_level[op.in[p]], lev->net_level[op.out]);
        deepest = std::max(deepest, lev->net_level[op.in[p]]);
      }
      EXPECT_EQ(lev->net_level[op.out], deepest + 1);
    }
  }
  // Sources stay at level 0.
  EXPECT_EQ(lev->net_level[kConst0], 0u);
  EXPECT_EQ(lev->net_level[kConst1], 0u);
  for (NetId in : c.inputs) EXPECT_EQ(lev->net_level[in], 0u);
  for (const netlist::FlatOp& ff : lev->seq) EXPECT_EQ(lev->net_level[ff.out], 0u);
}

TEST(Levelize, RejectsCombinationalLoop) {
  Netlist nl;
  const NetId a = nl.new_net();
  const NetId y = nl.new_net();
  nl.add_cell(CellType::Inv, {a}, y);
  nl.add_cell(CellType::Inv, {y}, a);
  EXPECT_FALSE(netlist::levelize(nl).has_value());
}

}  // namespace
}  // namespace addm::sim
