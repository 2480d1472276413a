// Unit and property tests for the two-level logic layer: truth tables,
// cubes/covers, the ISOP minimizer (equivalence + irredundancy over swept and
// randomized functions) and SOP-to-gates mapping (checked by simulation).
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>

#include "logic/cube.hpp"
#include "logic/isop.hpp"
#include "logic/sop_map.hpp"
#include "logic/truth_table.hpp"
#include "netlist/builder.hpp"
#include "sim/simulator.hpp"

namespace addm::logic {
namespace {

TEST(TruthTable, ZerosOnesVar) {
  EXPECT_TRUE(TruthTable::zeros(3).is_zero());
  EXPECT_TRUE(TruthTable::ones(3).is_ones());
  const auto x1 = TruthTable::var(3, 1);
  for (std::uint64_t m = 0; m < 8; ++m) EXPECT_EQ(x1.get(m), ((m >> 1) & 1) != 0);
  EXPECT_EQ(x1.count_ones(), 4u);
}

TEST(TruthTable, SetGetRoundTrip) {
  TruthTable t(4);
  t.set(5, true);
  t.set(12, true);
  EXPECT_TRUE(t.get(5));
  EXPECT_TRUE(t.get(12));
  EXPECT_FALSE(t.get(0));
  t.set(5, false);
  EXPECT_FALSE(t.get(5));
  EXPECT_EQ(t.count_ones(), 1u);
}

TEST(TruthTable, SmallWidthsNormalized) {
  // num_vars < 6 uses a partial word; ones() must not leak beyond it.
  for (int n = 0; n <= 5; ++n) {
    const auto t = TruthTable::ones(n);
    EXPECT_EQ(t.count_ones(), std::uint64_t{1} << n) << n;
    EXPECT_TRUE(t.is_ones());
    EXPECT_TRUE((~t).is_zero());
  }
}

TEST(TruthTable, OperatorsPointwise) {
  const auto a = TruthTable::var(3, 0);
  const auto b = TruthTable::var(3, 2);
  const auto f = (a & b) | (~a & ~b);  // xnor
  for (std::uint64_t m = 0; m < 8; ++m)
    EXPECT_EQ(f.get(m), ((m & 1) != 0) == ((m >> 2 & 1) != 0));
  EXPECT_EQ((a ^ a).count_ones(), 0u);
  EXPECT_TRUE(a.diff(a).is_zero());
}

class TruthTableCofactorTest : public ::testing::TestWithParam<int> {};

TEST_P(TruthTableCofactorTest, CofactorMatchesDefinition) {
  const int n = GetParam();
  std::mt19937_64 rng(42 + static_cast<unsigned>(n));
  TruthTable f(n);
  for (std::uint64_t m = 0; m < f.num_minterms_capacity(); ++m)
    f.set(m, rng() & 1);
  for (int k = 0; k < n; ++k) {
    const auto f0 = f.cofactor(k, false);
    const auto f1 = f.cofactor(k, true);
    EXPECT_FALSE(f0.depends_on(k));
    EXPECT_FALSE(f1.depends_on(k));
    for (std::uint64_t m = 0; m < f.num_minterms_capacity(); ++m) {
      const std::uint64_t m0 = m & ~(std::uint64_t{1} << k);
      const std::uint64_t m1 = m | (std::uint64_t{1} << k);
      EXPECT_EQ(f0.get(m), f.get(m0));
      EXPECT_EQ(f1.get(m), f.get(m1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, TruthTableCofactorTest,
                         ::testing::Values(1, 2, 3, 5, 6, 7, 8, 10));

TEST(TruthTable, TopVarAndDependence) {
  const auto f = TruthTable::var(8, 3) & TruthTable::var(8, 6);
  EXPECT_TRUE(f.depends_on(3));
  EXPECT_TRUE(f.depends_on(6));
  EXPECT_FALSE(f.depends_on(0));
  EXPECT_EQ(f.top_var(), 6);
  EXPECT_EQ(TruthTable::zeros(4).top_var(), -1);
}

/// depends_on and top_var(below) against the cofactor definition, over
/// every variable and every `below` in 0..n.
void expect_dependence_matches_cofactors(const TruthTable& f) {
  const int n = f.num_vars();
  int top = -1;
  for (int below = 0; below <= n; ++below) {
    EXPECT_EQ(f.top_var(below), top) << "below " << below;
    if (below == n) break;
    const bool dep = f.cofactor(below, false) != f.cofactor(below, true);
    EXPECT_EQ(f.depends_on(below), dep) << "var " << below;
    if (dep) top = below;
  }
  EXPECT_EQ(f.top_var(), top);
}

TEST(TruthTable, DependenceExhaustiveUpToFourVars) {
  for (int n = 0; n <= 4; ++n) {
    const std::uint64_t minterms = std::uint64_t{1} << n;
    for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << minterms); ++bits) {
      TruthTable f(n);
      for (std::uint64_t m = 0; m < minterms; ++m) f.set(m, (bits >> m) & 1);
      SCOPED_TRACE("n " + std::to_string(n) + " bits " + std::to_string(bits));
      expect_dependence_matches_cofactors(f);
    }
  }
}

TEST(TruthTable, DependenceRandomSingleAndMultiWord) {
  // n = 5 is a partial word, 6 a full word, 7..12 span 2..64 words, so both
  // the in-word (k < 6) and the block (k >= 6) comparisons are exercised.
  std::mt19937_64 rng(0xdeb5u);
  for (int n = 5; n <= 12; ++n) {
    for (int trial = 0; trial < 24; ++trial) {
      TruthTable f(n);
      for (std::uint64_t m = 0; m < f.num_minterms_capacity(); ++m) f.set(m, rng() & 1);
      // Drop a random subset of variables (cofactoring removes x_k), then
      // sometimes flip a single minterm so every variable matters again by
      // one bit that may sit in any word.
      for (int k = 0; k < n; ++k)
        if (rng() % 3 == 0) f = f.cofactor(k, rng() & 1);
      if (trial % 2) {
        const std::uint64_t m = rng() % f.num_minterms_capacity();
        f.set(m, !f.get(m));
      }
      SCOPED_TRACE("n " + std::to_string(n) + " trial " + std::to_string(trial));
      expect_dependence_matches_cofactors(f);
    }
  }
}

TEST(TruthTable, DependsOnRejectsOutOfRangeVariable) {
  for (int n : {0, 3, 6, 9}) {
    const auto f = TruthTable::ones(n);
    EXPECT_THROW((void)f.depends_on(-1), std::invalid_argument);
    EXPECT_THROW((void)f.depends_on(n), std::invalid_argument);
  }
}

TEST(TruthTable, Implies) {
  const auto a = TruthTable::var(4, 0);
  const auto ab = a & TruthTable::var(4, 1);
  EXPECT_TRUE(ab.implies(a));
  EXPECT_FALSE(a.implies(ab));
}

TEST(Cube, CoversAndLiterals) {
  Cube c;                   // universe
  EXPECT_TRUE(c.covers(7));
  EXPECT_EQ(c.num_literals(), 0);
  c.mask = 0b101;
  c.polarity = 0b001;       // x0 & !x2
  EXPECT_TRUE(c.covers(0b001));
  EXPECT_TRUE(c.covers(0b011));
  EXPECT_FALSE(c.covers(0b100));
  EXPECT_EQ(c.num_literals(), 2);
  EXPECT_EQ(c.to_string(), "x2'·x0");
}

TEST(Cube, Containment) {
  Cube big{0b001, 0b001};    // x0
  Cube small{0b011, 0b001};  // x0 & !x1
  EXPECT_TRUE(big.contains(small));
  EXPECT_FALSE(small.contains(big));
  EXPECT_TRUE(Cube::universe().contains(big));
}

TEST(Cover, ToTruthTableAndEvaluateAgree) {
  Cover cov;
  cov.cubes.push_back({0b011, 0b011});  // x0 x1
  cov.cubes.push_back({0b100, 0b000});  // !x2
  const auto tt = cov.to_truth_table(3);
  for (std::uint64_t m = 0; m < 8; ++m) EXPECT_EQ(tt.get(m), cov.evaluate(m)) << m;
  EXPECT_EQ(cov.num_literals(), 3);
  EXPECT_EQ(Cover{}.to_string(), "0");
}

TEST(Isop, ConstantFunctions) {
  EXPECT_TRUE(isop(TruthTable::zeros(4)).cubes.empty());
  const auto ones = isop(TruthTable::ones(4));
  ASSERT_EQ(ones.cubes.size(), 1u);
  EXPECT_EQ(ones.cubes[0].num_literals(), 0);
}

TEST(Isop, SingleVariableIsOneCube) {
  for (int n : {4, 8, 12}) {
    for (int k = 0; k < n; k += 3) {
      const auto cov = isop(TruthTable::var(n, k));
      ASSERT_EQ(cov.cubes.size(), 1u) << n << "," << k;
      EXPECT_EQ(cov.cubes[0].num_literals(), 1);
    }
  }
}

TEST(Isop, DecoderLineIsOneCube) {
  // f = (x == 5) over 4 vars: exactly one full cube.
  TruthTable f(4);
  f.set(5, true);
  const auto cov = isop(f);
  ASSERT_EQ(cov.cubes.size(), 1u);
  EXPECT_EQ(cov.cubes[0].num_literals(), 4);
}

TEST(Isop, XorNeedsTwoCubes) {
  const auto f = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
  const auto cov = isop(f);
  EXPECT_EQ(cov.cubes.size(), 2u);
  EXPECT_EQ(cov.to_truth_table(2), f);
}

TEST(Isop, DontCaresShrinkCover) {
  // onset {5}, dc everything else with x0=1: minimizes to the single literal x0.
  TruthTable lower(4);
  lower.set(5, true);
  const TruthTable upper = TruthTable::var(4, 0);
  const auto cov = isop(lower, upper);
  const auto tt = cov.to_truth_table(4);
  EXPECT_TRUE(lower.implies(tt));
  EXPECT_TRUE(tt.implies(upper));
  ASSERT_EQ(cov.cubes.size(), 1u);
  EXPECT_EQ(cov.cubes[0].num_literals(), 1);
}

TEST(Isop, RejectsInvertedBounds) {
  const auto a = TruthTable::var(3, 0);
  EXPECT_THROW(isop(TruthTable::ones(3), a), std::invalid_argument);
  EXPECT_THROW(isop(TruthTable::zeros(3), TruthTable::zeros(4)), std::invalid_argument);
}

class IsopRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(IsopRandomTest, EquivalentAndIrredundant) {
  const int n = GetParam();
  std::mt19937_64 rng(1000 + static_cast<unsigned>(n));
  for (int trial = 0; trial < 20; ++trial) {
    TruthTable f(n);
    for (std::uint64_t m = 0; m < f.num_minterms_capacity(); ++m) f.set(m, rng() & 1);
    const auto cov = isop(f);
    EXPECT_EQ(cov.to_truth_table(n), f) << "n=" << n << " trial=" << trial;
    EXPECT_TRUE(is_irredundant(cov, f, n)) << "n=" << n << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, IsopRandomTest, ::testing::Values(2, 3, 4, 5, 6, 8));

TEST(IsopRandom, IncompletelySpecifiedStaysInBounds) {
  std::mt19937_64 rng(7);
  const int n = 6;
  for (int trial = 0; trial < 20; ++trial) {
    TruthTable lower(n), dc(n);
    for (std::uint64_t m = 0; m < lower.num_minterms_capacity(); ++m) {
      const auto r = rng() % 4;
      if (r == 0) lower.set(m, true);
      if (r == 1) dc.set(m, true);
    }
    const TruthTable upper = lower | dc;
    const auto cov = isop(lower, upper);
    const auto val = cov.to_truth_table(n);
    EXPECT_TRUE(lower.implies(val));
    EXPECT_TRUE(val.implies(upper));
  }
}

TEST(SopMap, MappedCoverMatchesFunction) {
  std::mt19937_64 rng(99);
  const int n = 4;
  for (int trial = 0; trial < 10; ++trial) {
    TruthTable f(n);
    for (std::uint64_t m = 0; m < f.num_minterms_capacity(); ++m) f.set(m, rng() & 1);
    const auto cov = isop(f);

    netlist::Netlist nl;
    netlist::NetlistBuilder b(nl);
    const auto inputs = b.input_bus("x", n);
    b.output("f", map_cover(b, cov, inputs));

    sim::Simulator s(nl);
    for (std::uint64_t m = 0; m < f.num_minterms_capacity(); ++m) {
      s.set_bus("x", m);
      s.eval();
      EXPECT_EQ(s.get("f"), f.get(m)) << "minterm " << m;
    }
  }
}

TEST(SopMap, FlatModeUsesMoreGates) {
  // Two outputs sharing a subterm: hashed mapping reuses it, flat does not.
  TruthTable f(4);
  for (std::uint64_t m = 0; m < 16; ++m)
    if ((m & 0b0111) == 0b0111) f.set(m, true);  // x0 x1 x2
  TruthTable g(4);
  for (std::uint64_t m = 0; m < 16; ++m)
    if ((m & 0b1011) == 0b0011) g.set(m, true);  // x0 x1 !x3

  auto gate_count = [&](bool share) {
    netlist::Netlist nl;
    netlist::NetlistBuilder b(nl);
    const auto inputs = b.input_bus("x", 4);
    b.set_sharing(share);
    b.output("f", map_cover(b, isop(f), inputs));
    b.output("g", map_cover(b, isop(g), inputs));
    return nl.stats().num_comb;
  };
  EXPECT_LE(gate_count(true), gate_count(false));
}

TEST(SopMap, RejectsOutOfRangeVariable) {
  netlist::Netlist nl;
  netlist::NetlistBuilder b(nl);
  const auto inputs = b.input_bus("x", 2);
  Cover cov;
  cov.cubes.push_back({0b100, 0b100});  // uses x2, but only 2 inputs
  EXPECT_THROW(map_cover(b, cov, inputs), std::invalid_argument);
}

}  // namespace
}  // namespace addm::logic
