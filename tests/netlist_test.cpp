// Unit tests for the netlist substrate: cells, builder folding/hashing,
// validation, topological ordering, fanout accounting and DOT export.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "netlist/builder.hpp"
#include "netlist/dot.hpp"
#include "netlist/netlist.hpp"

namespace addm::netlist {
namespace {

TEST(CellTraits, AritiesMatchConventions) {
  EXPECT_EQ(traits(CellType::Inv).num_inputs, 1);
  EXPECT_EQ(traits(CellType::Mux2).num_inputs, 3);
  EXPECT_EQ(traits(CellType::DffER).num_inputs, 3);
  EXPECT_TRUE(is_sequential(CellType::Dff));
  EXPECT_FALSE(is_sequential(CellType::Nand2));
  EXPECT_EQ(cell_name(CellType::Xnor2), "XNOR2");
}

TEST(Netlist, ConstantsPreexist) {
  Netlist nl;
  EXPECT_EQ(nl.num_nets(), 2u);
  EXPECT_FALSE(nl.is_primary_input(kConst0));
  EXPECT_FALSE(nl.driver_of(kConst0).has_value());
}

TEST(Netlist, AddInputOutput) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  nl.add_output("y", a);
  EXPECT_TRUE(nl.is_primary_input(a));
  EXPECT_EQ(nl.find_input("a"), a);
  EXPECT_EQ(nl.find_output("y"), a);
  EXPECT_FALSE(nl.find_input("b").has_value());
}

TEST(Netlist, OutputBusMatchesPerIndexLookup) {
  Netlist nl;
  std::vector<NetId> n;
  for (int i = 0; i < 8; ++i) n.push_back(nl.new_net());
  nl.add_output("q[01]", n[4]);  // not how index 1 is spelled
  nl.add_output("q[1]", n[1]);
  nl.add_output("q[0]", n[0]);
  nl.add_output("q[1]", n[2]);   // duplicate name: the first binding wins
  nl.add_output("q[3]", n[3]);   // past the gap at [2]: not part of the bus
  nl.add_output("qq[2]", n[5]);
  nl.add_output("r[1]", n[6]);   // no r[0]
  nl.add_output("q", n[7]);
  const auto per_index = [&](std::string_view prefix) {
    std::vector<NetId> nets;
    for (int i = 0;; ++i) {
      const auto net = nl.find_output(std::string(prefix) + "[" + std::to_string(i) + "]");
      if (!net) return nets;
      nets.push_back(*net);
    }
  };
  EXPECT_EQ(nl.output_bus("q"), (std::vector<NetId>{n[0], n[1]}));
  for (std::string_view prefix : {"q", "qq", "r", "", "q[0", "x"})
    EXPECT_EQ(nl.output_bus(prefix), per_index(prefix)) << prefix;
  EXPECT_TRUE(nl.output_bus("r").empty());
}

TEST(Netlist, AddCellChecksArity) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId y = nl.new_net();
  EXPECT_THROW(nl.add_cell(CellType::And2, {a}, y), std::invalid_argument);
  EXPECT_NO_THROW(nl.add_cell(CellType::Inv, {a}, y));
}

TEST(Netlist, ValidateCleanCircuit) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a");
  const NetId c = b.input("b");
  b.output("y", b.and2(a, c));
  EXPECT_TRUE(nl.validate().empty());
}

TEST(Netlist, ValidateDetectsUndriven) {
  Netlist nl;
  const NetId dangling = nl.new_net();
  nl.add_output("y", dangling);
  const auto issues = nl.validate();
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues[0].kind, ValidationIssue::Kind::UndrivenNet);
}

TEST(Netlist, ValidateDetectsCombinationalLoop) {
  Netlist nl;
  const NetId a = nl.new_net();
  const NetId y = nl.new_net();
  nl.add_cell(CellType::Inv, {a}, y);
  nl.add_cell(CellType::Inv, {y}, a);
  bool found = false;
  for (const auto& i : nl.validate())
    found |= i.kind == ValidationIssue::Kind::CombinationalLoop;
  EXPECT_TRUE(found);
  EXPECT_FALSE(nl.topo_order().has_value());
}

TEST(Netlist, SequentialFeedbackIsNotALoop) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId q = nl.new_net();
  const NetId d = b.inv(q);
  nl.add_cell(CellType::Dff, {d}, q);  // toggle flop
  EXPECT_TRUE(nl.validate().empty());
  EXPECT_TRUE(nl.topo_order().has_value());
}

TEST(Netlist, FanoutCounts) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a");
  const NetId c = b.input("c");
  const NetId x = b.inv(a);
  const NetId y = b.and2(x, c);
  b.output("x", x);
  b.output("y", y);
  const auto fo = nl.fanout_counts();
  EXPECT_EQ(fo[a], 1u);  // inv input
  EXPECT_EQ(fo[x], 2u);  // and input + PO
  EXPECT_EQ(fo[y], 1u);  // PO
}

TEST(Builder, ConstantFoldingAnd) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a");
  EXPECT_EQ(b.and2(a, kConst0), kConst0);
  EXPECT_EQ(b.and2(a, kConst1), a);
  EXPECT_EQ(b.and2(a, a), a);
  EXPECT_EQ(b.and2(a, b.inv(a)), kConst0);
  EXPECT_EQ(nl.stats().of(CellType::And2), 0u);
}

TEST(Builder, ConstantFoldingOrXorMux) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a");
  const NetId c = b.input("c");
  EXPECT_EQ(b.or2(a, kConst1), kConst1);
  EXPECT_EQ(b.xor2(a, a), kConst0);
  EXPECT_EQ(b.xor2(a, kConst0), a);
  EXPECT_EQ(b.mux2(kConst0, a, c), a);
  EXPECT_EQ(b.mux2(kConst1, a, c), c);
  EXPECT_EQ(b.mux2(c, a, a), a);
  EXPECT_EQ(b.mux2(a, kConst0, kConst1), a);
}

TEST(Builder, InverterPairing) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a");
  const NetId na = b.inv(a);
  EXPECT_EQ(b.inv(na), a);
  EXPECT_EQ(b.inv(a), na);  // cached
  EXPECT_EQ(nl.stats().of(CellType::Inv), 1u);
}

TEST(Builder, StructuralHashingSharesGates) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a");
  const NetId c = b.input("c");
  const NetId g1 = b.and2(a, c);
  const NetId g2 = b.and2(c, a);  // commutative: same gate
  EXPECT_EQ(g1, g2);
  EXPECT_EQ(nl.stats().of(CellType::And2), 1u);
}

TEST(Builder, SharingDisabledDuplicatesGates) {
  Netlist nl;
  NetlistBuilder b(nl);
  b.set_sharing(false);
  const NetId a = b.input("a");
  const NetId c = b.input("c");
  const NetId g1 = b.and2(a, c);
  const NetId g2 = b.and2(a, c);
  EXPECT_NE(g1, g2);
  EXPECT_EQ(nl.stats().of(CellType::And2), 2u);
}

TEST(Builder, TreesBalanceAndFold) {
  Netlist nl;
  NetlistBuilder b(nl);
  std::vector<NetId> xs;
  for (int i = 0; i < 8; ++i) xs.push_back(b.input("x" + std::to_string(i)));
  const NetId y = b.and_tree(xs);
  b.output("y", y);
  EXPECT_EQ(nl.stats().of(CellType::And2), 7u);
  EXPECT_EQ(b.and_tree({}), kConst1);
  EXPECT_EQ(b.or_tree({}), kConst0);
  std::vector<NetId> one{xs[0]};
  EXPECT_EQ(b.or_tree(one), xs[0]);
}

TEST(Builder, EqualsConst) {
  Netlist nl;
  NetlistBuilder b(nl);
  const auto word = b.input_bus("w", 4);
  const NetId eq = b.equals_const(word, 0b1010);
  b.output("eq", eq);
  EXPECT_TRUE(nl.validate().empty());
}

TEST(Builder, ConstantWord) {
  Netlist nl;
  NetlistBuilder b(nl);
  const auto w = b.constant_word(0b101, 3);
  EXPECT_EQ(w[0], kConst1);
  EXPECT_EQ(w[1], kConst0);
  EXPECT_EQ(w[2], kConst1);
}

TEST(Dot, ContainsPortsAndCells) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a");
  b.output("y", b.inv(a));
  const std::string dot = to_dot(nl, "g");
  EXPECT_NE(dot.find("digraph g"), std::string::npos);
  EXPECT_NE(dot.find("INV"), std::string::npos);
  EXPECT_NE(dot.find("label=\"a\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"y\""), std::string::npos);
}

TEST(Netlist, StatsCountsTypes) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a");
  const NetId q = b.dff(a);
  b.output("q", q);
  const auto s = nl.stats();
  EXPECT_EQ(s.num_cells, 1u);
  EXPECT_EQ(s.num_seq, 1u);
  EXPECT_EQ(s.num_comb, 0u);
}

TEST(Netlist, SweepDeadCellsRemovesUnreachableLogic) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a");
  const NetId c = b.input("c");
  const NetId live = b.and2(a, c);
  b.xor2(a, c);                    // dead combinational cell
  const NetId dead_q = b.dff(a);   // dead flop
  b.and2(dead_q, c);               // dead logic fed by the dead flop
  b.output("y", live);
  EXPECT_EQ(nl.stats().num_cells, 4u);
  EXPECT_EQ(nl.sweep_dead_cells(), 3u);
  EXPECT_EQ(nl.stats().num_cells, 1u);
  EXPECT_TRUE(nl.validate().empty());
  // Drivers stay consistent after renumbering.
  EXPECT_EQ(nl.driver_of(live), 0u);
}

TEST(Netlist, SweepKeepsSequentialFeedback) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId q = nl.new_net();
  nl.add_cell(CellType::Dff, {b.inv(q)}, q);
  nl.add_output("q", q);
  EXPECT_EQ(nl.sweep_dead_cells(), 0u);
  EXPECT_EQ(nl.stats().num_cells, 2u);
}

TEST(Netlist, SetCellInputRewires) {
  Netlist nl;
  NetlistBuilder b(nl);
  const NetId a = b.input("a");
  const NetId c = b.input("c");
  const NetId y = b.inv(a);
  const auto drv = nl.driver_of(y);
  ASSERT_TRUE(drv.has_value());
  nl.set_cell_input(*drv, 0, c);
  EXPECT_EQ(nl.cell(*drv).inputs[0], c);
  EXPECT_THROW(nl.set_cell_input(*drv, 5, c), std::out_of_range);
}

}  // namespace
}  // namespace addm::netlist
