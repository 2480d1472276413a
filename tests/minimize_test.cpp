// Tests for the unified minimize() dispatcher (logic/minimize.hpp): routing
// policy, uniform error paths across backends, equivalence of the default
// path with the historical direct-isop calls, pinned ("golden") cover
// costs guarding the covers that exploration fingerprints depend on, and
// the per-thread MinimizeMemo scope.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "logic/espresso.hpp"
#include "logic/isop.hpp"
#include "logic/minimize.hpp"
#include "logic/qmc.hpp"

namespace addm::logic {
namespace {

TruthTable counter_bit(int n, int k) {
  const std::uint64_t len = std::uint64_t{1} << n;
  TruthTable f(n);
  for (std::uint64_t s = 0; s < len; ++s)
    if ((((s + 1) % len) >> k) & 1) f.set(s, true);
  return f;
}

TruthTable seeded_random(int n, std::uint32_t seed, int one_in) {
  std::mt19937 rng(seed);
  TruthTable f(n);
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m)
    if (rng() % one_in == 0) f.set(m, true);
  return f;
}

TEST(Minimize, DefaultOptionsReproduceIsopCubeForCube) {
  // The determinism contract hinges on this: with default MinimizeOptions,
  // every synthesized cover is byte-identical to the pre-dispatcher
  // logic::isop output, so default exploration fingerprints stay pinned.
  std::mt19937 rng(1);
  for (int n = 3; n <= 9; ++n) {
    TruthTable lower(n), dc(n);
    for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m) {
      const auto r = rng() % 4;
      if (r == 0) lower.set(m, true);
      else if (r == 1) dc.set(m, true);
    }
    const TruthTable upper = lower | dc;
    const Cover via_dispatcher = minimize(lower, upper);
    const Cover direct = isop(lower, upper);
    ASSERT_EQ(via_dispatcher.cubes.size(), direct.cubes.size()) << "n=" << n;
    for (std::size_t i = 0; i < direct.cubes.size(); ++i)
      EXPECT_EQ(via_dispatcher.cubes[i], direct.cubes[i]) << "n=" << n;
  }
}

TEST(Minimize, RoutingPolicy) {
  MinimizeOptions o;
  EXPECT_EQ(selected_minimizer(4, o), MinimizerAlgo::Isop);
  EXPECT_EQ(selected_minimizer(20, o), MinimizerAlgo::Isop);

  o.algo = MinimizerAlgo::Exact;
  EXPECT_EQ(selected_minimizer(4, o), MinimizerAlgo::Exact);

  o.algo = MinimizerAlgo::Espresso;
  EXPECT_EQ(selected_minimizer(2, o), MinimizerAlgo::Espresso);

  o.algo = MinimizerAlgo::Auto;
  EXPECT_EQ(selected_minimizer(kDefaultHeuristicMinVars - 1, o), MinimizerAlgo::Isop);
  EXPECT_EQ(selected_minimizer(kDefaultHeuristicMinVars, o), MinimizerAlgo::Espresso);
  o.heuristic_min_vars = 3;
  EXPECT_EQ(selected_minimizer(2, o), MinimizerAlgo::Isop);
  EXPECT_EQ(selected_minimizer(3, o), MinimizerAlgo::Espresso);
}

TEST(Minimize, MinimizerNames) {
  EXPECT_STREQ(minimizer_name(MinimizerAlgo::Isop), "isop");
  EXPECT_STREQ(minimizer_name(MinimizerAlgo::Exact), "exact");
  EXPECT_STREQ(minimizer_name(MinimizerAlgo::Espresso), "espresso");
  EXPECT_STREQ(minimizer_name(MinimizerAlgo::Auto), "auto");
}

TEST(Minimize, AllBackendsProduceValidCovers) {
  const TruthTable lower = seeded_random(7, 11, 4);
  const TruthTable upper = lower | seeded_random(7, 12, 4);
  for (MinimizerAlgo algo : {MinimizerAlgo::Isop, MinimizerAlgo::Exact,
                             MinimizerAlgo::Espresso, MinimizerAlgo::Auto}) {
    MinimizeOptions o;
    o.algo = algo;
    const Cover c = minimize(lower, upper, o);
    const TruthTable got = c.to_truth_table(7);
    EXPECT_TRUE(lower.implies(got)) << minimizer_name(algo);
    EXPECT_TRUE(got.implies(upper)) << minimizer_name(algo);
  }
}

TEST(Minimize, UniformErrorPathsAcrossBackends) {
  const TruthTable three = TruthTable::var(3, 0);
  const TruthTable four = TruthTable::var(4, 0);
  for (MinimizerAlgo algo : {MinimizerAlgo::Isop, MinimizerAlgo::Exact,
                             MinimizerAlgo::Espresso, MinimizerAlgo::Auto}) {
    MinimizeOptions o;
    o.algo = algo;
    // Mismatched variable counts.
    EXPECT_THROW(minimize(three, four, o), std::invalid_argument)
        << minimizer_name(algo);
    // Lower bound escaping the upper bound.
    EXPECT_THROW(minimize(TruthTable::ones(3), three, o), std::invalid_argument)
        << minimizer_name(algo);
  }
  // The exact backend's own capacity limit still surfaces.
  EXPECT_THROW(prime_implicants(TruthTable::ones(13), TruthTable::ones(13)),
               std::invalid_argument);
  // Backends reject the same bad bounds when called directly, too.
  EXPECT_THROW(isop(TruthTable::ones(3), three), std::invalid_argument);
  EXPECT_THROW(espresso(TruthTable::ones(3), three), std::invalid_argument);
}

TEST(Minimize, GoldenCoverCosts) {
  // Pinned costs of the default (isop) path on a fixed function set.  These
  // covers feed netlists, metrics, and ultimately the pinned exploration
  // fingerprints — a change here means persisted caches and golden reports
  // go stale, which must be deliberate, never accidental.
  struct GoldenEntry {
    int bit;
    int cubes;
    int literals;
  };
  const GoldenEntry counter6[] = {{0, 1, 1}, {1, 2, 4}, {2, 3, 7}};
  for (const auto& g : counter6) {
    const Cover c = minimize(counter_bit(6, g.bit));
    EXPECT_EQ(c.num_cubes(), g.cubes) << "bit " << g.bit;
    EXPECT_EQ(c.num_literals(), g.literals) << "bit " << g.bit;
  }

  std::mt19937 rng(2002);
  const int rand7_cubes[] = {23, 26, 26};
  const int rand7_lits[] = {132, 151, 155};
  for (int t = 0; t < 3; ++t) {
    TruthTable f(7);
    for (std::uint64_t m = 0; m < 128; ++m)
      if (rng() % 3 == 0) f.set(m, true);
    const Cover c = minimize(f);
    EXPECT_EQ(c.num_cubes(), rand7_cubes[t]) << "trial " << t;
    EXPECT_EQ(c.num_literals(), rand7_lits[t]) << "trial " << t;
  }

  std::mt19937 rng2(317);
  TruthTable lower(8), dc(8);
  for (std::uint64_t m = 0; m < 256; ++m) {
    const auto r = rng2() % 4;
    if (r == 0) lower.set(m, true);
    else if (r == 1) dc.set(m, true);
  }
  const Cover c = minimize(lower, lower | dc);
  EXPECT_EQ(c.num_cubes(), 35);
  EXPECT_EQ(c.num_literals(), 215);
}

TEST(Minimize, ExactBackendNeverBeatenByHeuristics) {
  std::mt19937 rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const TruthTable f = seeded_random(6, 100 + trial, 5);
    MinimizeOptions exact_opt;
    exact_opt.algo = MinimizerAlgo::Exact;
    const int exact = minimize(f, exact_opt).num_cubes();
    MinimizeOptions esp_opt;
    esp_opt.algo = MinimizerAlgo::Espresso;
    EXPECT_LE(exact, minimize(f, esp_opt).num_cubes());
    EXPECT_LE(exact, minimize(f).num_cubes());
  }
}

/// The golden function set of GoldenCoverCosts plus incompletely
/// specified random functions, as (lower, upper) pairs.
std::vector<std::pair<TruthTable, TruthTable>> memo_functions() {
  std::vector<std::pair<TruthTable, TruthTable>> fs;
  for (int bit = 0; bit < 3; ++bit) fs.emplace_back(counter_bit(6, bit), counter_bit(6, bit));
  std::mt19937 rng(2002);
  for (int t = 0; t < 3; ++t) {
    TruthTable f(7);
    for (std::uint64_t m = 0; m < 128; ++m)
      if (rng() % 3 == 0) f.set(m, true);
    fs.emplace_back(f, f);
  }
  for (int n = 3; n <= 8; ++n) {
    const TruthTable lower = seeded_random(n, 40 + n, 4);
    fs.emplace_back(lower, lower | seeded_random(n, 80 + n, 4));
  }
  return fs;
}

void expect_same_cover(const Cover& a, const Cover& b) {
  ASSERT_EQ(a.cubes.size(), b.cubes.size());
  for (std::size_t i = 0; i < a.cubes.size(); ++i) EXPECT_EQ(a.cubes[i], b.cubes[i]);
}

TEST(MinimizeMemo, CoversMatchWithAndWithoutScope) {
  const auto fs = memo_functions();
  for (MinimizerAlgo algo : {MinimizerAlgo::Isop, MinimizerAlgo::Exact,
                             MinimizerAlgo::Espresso, MinimizerAlgo::Auto}) {
    SCOPED_TRACE(minimizer_name(algo));
    MinimizeOptions o;
    o.algo = algo;
    o.heuristic_min_vars = 6;  // Auto takes both backends over this set
    // The exact backend is exponential in the prime count; keep it small.
    std::vector<std::pair<TruthTable, TruthTable>> set;
    for (const auto& f : fs)
      if (algo != MinimizerAlgo::Exact || f.first.num_vars() <= 6) set.push_back(f);
    std::vector<Cover> plain;
    for (const auto& [lower, upper] : set) plain.push_back(minimize(lower, upper, o));

    const MinimizeMemo memo;
    for (int pass = 0; pass < 2; ++pass)  // first pass fills, second hits
      for (std::size_t i = 0; i < set.size(); ++i)
        expect_same_cover(minimize(set[i].first, set[i].second, o), plain[i]);
    EXPECT_EQ(memo.size(), set.size());
  }
}

TEST(MinimizeMemo, OptionsArePartOfTheKey) {
  const TruthTable f = seeded_random(7, 11, 3);
  MinimizeOptions isop_opt;
  MinimizeOptions esp_opt;
  esp_opt.algo = MinimizerAlgo::Espresso;
  const Cover want_isop = minimize(f, isop_opt);
  const Cover want_esp = minimize(f, esp_opt);

  const MinimizeMemo memo;
  expect_same_cover(minimize(f, isop_opt), want_isop);
  expect_same_cover(minimize(f, esp_opt), want_esp);
  EXPECT_EQ(memo.size(), 2u);
  // Options that cannot change this cover still key separately.
  MinimizeOptions isop_other = isop_opt;
  isop_other.heuristic_min_vars = 3;
  expect_same_cover(minimize(f, isop_other), want_isop);
  EXPECT_EQ(memo.size(), 3u);
  // So do the bounds: the same onset with a looser upper bound is a new key.
  const TruthTable upper = f | seeded_random(7, 12, 3);
  expect_same_cover(minimize(f, upper, isop_opt), isop(f, upper));
  EXPECT_EQ(memo.size(), 4u);
  expect_same_cover(minimize(f, isop_opt), want_isop);
  EXPECT_EQ(memo.size(), 4u);
}

TEST(MinimizeMemo, NestedScopesRestoreTheOuterScope) {
  const TruthTable f = counter_bit(6, 2);
  const TruthTable g = counter_bit(6, 3);
  const MinimizeMemo outer;
  minimize(f);
  EXPECT_EQ(outer.size(), 1u);
  {
    const MinimizeMemo inner;
    minimize(f);
    minimize(g);
    EXPECT_EQ(inner.size(), 2u);
    EXPECT_EQ(outer.size(), 1u);
  }
  minimize(g);
  minimize(f);
  EXPECT_EQ(outer.size(), 2u);
}

TEST(MinimizeMemo, NothingIsCachedWithoutAScope) {
  const TruthTable f = counter_bit(6, 1);
  {
    const MinimizeMemo closed;
    minimize(f);
    EXPECT_EQ(closed.size(), 1u);
  }
  // The closed scope must not be reached (ASan would flag it), and a new
  // scope starts empty.
  expect_same_cover(minimize(f), isop(f, f));
  const MinimizeMemo fresh;
  EXPECT_EQ(fresh.size(), 0u);
  minimize(f);
  EXPECT_EQ(fresh.size(), 1u);
}

TEST(MinimizeMemo, ArgumentChecksRunBeforeTheMemo) {
  const MinimizeMemo memo;
  const TruthTable three = TruthTable::var(3, 0);
  try {
    minimize(three, TruthTable::var(4, 0));
    ADD_FAILURE() << "mismatched variable counts accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "minimize: mismatched variable counts");
  }
  try {
    minimize(TruthTable::ones(3), three);
    ADD_FAILURE() << "escaping lower bound accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "minimize: lower bound not contained in upper bound");
  }
  EXPECT_EQ(memo.size(), 0u);
}

TEST(MinimizeMemo, ThreadsKeepTheirOwnScopes) {
  const auto fs = memo_functions();
  std::vector<Cover> plain;
  for (const auto& [lower, upper] : fs) plain.push_back(minimize(lower, upper));

  // Each thread minimizes its own half of the set in its own scope, twice.
  std::vector<std::size_t> sizes(2);
  std::vector<std::vector<Cover>> got(2);
  auto work = [&](std::size_t t) {
    const MinimizeMemo memo;
    for (int pass = 0; pass < 2; ++pass)
      for (std::size_t i = t; i < fs.size(); i += 2)
        got[t].push_back(minimize(fs[i].first, fs[i].second));
    sizes[t] = memo.size();
  };
  std::thread a(work, 0);
  std::thread b(work, 1);
  a.join();
  b.join();
  for (std::size_t t = 0; t < 2; ++t) {
    const std::size_t own = (fs.size() + 1 - t) / 2;
    EXPECT_EQ(sizes[t], own);
    ASSERT_EQ(got[t].size(), 2 * own);
    for (std::size_t k = 0; k < got[t].size(); ++k)
      expect_same_cover(got[t][k], plain[t + 2 * (k % own)]);
  }
}

TEST(TruthTableHash, EqualTablesHashEqual) {
  const TruthTable f = seeded_random(8, 7, 3);
  TruthTable g(8);
  for (std::uint64_t m = 0; m < 256; ++m) g.set(m, f.get(m));
  EXPECT_EQ(f, g);
  EXPECT_EQ(f.hash(), g.hash());
  // The variable count is hashed: zero functions of different arity differ.
  EXPECT_NE(TruthTable(3).hash(), TruthTable(4).hash());
  g.set(17, !g.get(17));
  EXPECT_NE(f.hash(), g.hash());
}

}  // namespace
}  // namespace addm::logic
