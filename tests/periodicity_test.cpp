// Tests for exact periodicity compression: factorization shapes, agreement
// with the brute-force reference (tests/periodicity_reference.hpp) on
// randomized and adversarial traces, and affine loop-nest recovery.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "seq/analysis.hpp"
#include "seq/periodicity.hpp"
#include "seq/workloads.hpp"
#include "periodicity_reference.hpp"

namespace addm::seq {
namespace {

AddressTrace make(std::vector<std::uint32_t> a, ArrayGeometry g = {8, 8},
                  std::string name = {}) {
  return AddressTrace(g, std::move(a), std::move(name));
}

std::vector<std::uint32_t> tile(const std::vector<std::uint32_t>& period,
                                std::size_t repeats, std::size_t tail = 0) {
  std::vector<std::uint32_t> out;
  for (std::size_t r = 0; r < repeats; ++r)
    out.insert(out.end(), period.begin(), period.end());
  out.insert(out.end(), period.begin(),
             period.begin() + static_cast<std::ptrdiff_t>(tail));
  return out;
}

TEST(Periodicity, PurePeriodicTrace) {
  const std::vector<std::uint32_t> period{0, 1, 2, 3, 8, 9};
  const auto t = make(tile(period, 7), {8, 8}, "pure");
  const CompressedTrace ct = compress_periodic(t);
  EXPECT_TRUE(ct.pure());
  EXPECT_TRUE(ct.compressed());
  EXPECT_EQ(ct.period, period);
  EXPECT_EQ(ct.repeats, 7u);
  EXPECT_EQ(ct.tail, 0u);
  EXPECT_EQ(ct.length(), t.length());
  const AddressTrace back = ct.expand();
  EXPECT_EQ(back.linear(), t.linear());
  EXPECT_EQ(back.geometry(), t.geometry());
  EXPECT_EQ(back.name(), t.name());
}

TEST(Periodicity, PartialTail) {
  const std::vector<std::uint32_t> period{5, 6, 7};
  const auto t = make(tile(period, 4, 2));
  const CompressedTrace ct = compress_periodic(t);
  EXPECT_EQ(ct.period, period);
  EXPECT_EQ(ct.repeats, 4u);
  EXPECT_EQ(ct.tail, 2u);
  EXPECT_EQ(ct.suffix(), (std::vector<std::uint32_t>{5, 6}));
  EXPECT_FALSE(ct.pure());
  EXPECT_EQ(ct.expand().linear(), t.linear());
}

TEST(Periodicity, WarmupPrefixIsTrimmed) {
  // 63 0 1 0 1 ... has global period == length, but trimming one element
  // exposes period 2; the prefix search must find the cheaper split.
  std::vector<std::uint32_t> a{63};
  const auto body = tile({0, 1}, 10);
  a.insert(a.end(), body.begin(), body.end());
  const CompressedTrace ct = compress_periodic(make(a));
  EXPECT_EQ(ct.prefix, (std::vector<std::uint32_t>{63}));
  EXPECT_EQ(ct.period, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(ct.repeats, 10u);
  EXPECT_EQ(ct.stored(), 3u);
  EXPECT_EQ(ct.expand().linear(), a);
}

TEST(Periodicity, AperiodicTraceIsCanonicalUncompressed) {
  const std::vector<std::uint32_t> a{3, 1, 4, 1, 5, 9, 2, 6};
  const CompressedTrace ct = compress_periodic(make(a));
  EXPECT_TRUE(ct.prefix.empty());
  EXPECT_EQ(ct.period, a);
  EXPECT_EQ(ct.repeats, 1u);
  EXPECT_EQ(ct.tail, 0u);
  EXPECT_FALSE(ct.compressed());
  EXPECT_EQ(ct.expand().linear(), a);
}

TEST(Periodicity, EmptyTrace) {
  const CompressedTrace ct = compress_periodic(AddressTrace({4, 4}, {}, "e"));
  EXPECT_EQ(ct.length(), 0u);
  EXPECT_EQ(ct.repeats, 0u);
  EXPECT_TRUE(ct.expand().empty());
}

TEST(Periodicity, ConstantTraceCompressesToOneElement) {
  const CompressedTrace ct = compress_periodic(make(std::vector<std::uint32_t>(500, 7)));
  EXPECT_EQ(ct.period, (std::vector<std::uint32_t>{7}));
  EXPECT_EQ(ct.repeats, 500u);
  EXPECT_EQ(ct.stored(), 1u);
}

TEST(Periodicity, PeriodMatchesSmallestPeriodOnPureTraces) {
  // The factorization's period length must agree with seq::smallest_period
  // for whole-multiple traces.
  const std::vector<std::uint32_t> period{2, 4, 4, 6};
  const auto a = tile(period, 6);
  const CompressedTrace ct = compress_periodic(make(a));
  EXPECT_EQ(ct.period.size(), smallest_period(a));
}

// compress_periodic equals the brute-force reference and expands back to
// its input.
void expect_matches_reference(const std::vector<std::uint32_t>& a,
                              const std::string& what) {
  const AddressTrace t(ArrayGeometry{8, 8}, a, "r");
  const CompressedTrace got = compress_periodic(t);
  const CompressedTrace want = reference::compress_periodic(t);
  EXPECT_TRUE(reference::same_factorization(got, want))
      << what << ": got prefix " << got.prefix.size() << " period " << got.period.size()
      << " x" << got.repeats << " tail " << got.tail << ", want prefix "
      << want.prefix.size() << " period " << want.period.size() << " x" << want.repeats
      << " tail " << want.tail;
  EXPECT_EQ(got.expand().linear(), a) << what;
}

TEST(Periodicity, MatchesBruteForceReferenceOnAdversarialShapes) {
  expect_matches_reference({}, "empty");
  expect_matches_reference({5}, "one address");
  expect_matches_reference({5, 5}, "two equal");
  expect_matches_reference({5, 6}, "two distinct");
  expect_matches_reference(zigzag({8, 8}).linear(), "zigzag");
  // A long pure trace: locks once and never breaks.
  expect_matches_reference(tile({0, 1, 2, 3, 8, 9, 10, 11}, 1000), "1000 passes");
  // Locked on {1,2,3}, broken by one address, then a different tail.
  std::vector<std::uint32_t> a = tile({1, 2, 3}, 50);
  a.push_back(9);
  a.insert(a.end(), {1, 2, 3, 5});
  expect_matches_reference(a, "lock then break");
  // Lock -> break -> relock on the same period.
  a = tile({1, 2, 3}, 6);
  a.push_back(7);
  const auto again = tile({1, 2, 3}, 6);
  a.insert(a.end(), again.begin(), again.end());
  expect_matches_reference(a, "lock, break, relock");
  // Warm-up prefix that itself looks periodic before the real period.
  a = {4, 4, 4};
  const auto body = tile({0, 1, 2}, 9, 2);
  a.insert(a.end(), body.begin(), body.end());
  expect_matches_reference(a, "periodic warm-up");
  // A single break at the very end of a long periodic run.
  a = tile({3, 1}, 200);
  a.back() = 7;
  expect_matches_reference(a, "late break");
}

TEST(Periodicity, MatchesBruteForceReferenceOnRandomTraces) {
  std::mt19937 rng(4242);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::uint32_t> a;
    const std::string what = "trial " + std::to_string(trial);
    switch (trial % 4) {
      case 0: {
        // Small alphabets make accidental periods likely.
        const std::uint32_t alphabet = 1 + rng() % 4;
        a.resize(rng() % 121);
        for (auto& v : a) v = rng() % alphabet;
        break;
      }
      case 1: {
        // Periodic stretches broken by noise: a period is seen twice, then
        // broken, then a new one is seen twice.
        const int segments = 1 + static_cast<int>(rng() % 4);
        for (int s = 0; s < segments; ++s) {
          std::vector<std::uint32_t> period(1 + rng() % 9);
          for (auto& v : period) v = rng() % 5;
          const std::size_t len = rng() % 120;
          for (std::size_t i = 0; i < len; ++i) a.push_back(period[i % period.size()]);
          for (std::size_t i = rng() % 3; i > 0; --i) a.push_back(rng() % 64);
        }
        break;
      }
      case 2: {
        // Warm-up prefix + k x period + partial tail.
        std::vector<std::uint32_t> period(1 + rng() % 12);
        for (auto& v : period) v = rng() % 6;
        for (std::size_t i = rng() % 6; i > 0; --i) a.push_back(rng() % 6);
        const auto body = tile(period, 1 + rng() % 15, rng() % period.size());
        a.insert(a.end(), body.begin(), body.end());
        break;
      }
      default: {
        // One address changed anywhere in a periodic trace.
        std::vector<std::uint32_t> period(1 + rng() % 8);
        for (auto& v : period) v = rng() % 4;
        a = tile(period, 2 + rng() % 20, rng() % period.size());
        a[rng() % a.size()] = rng() % 64;
        break;
      }
    }
    expect_matches_reference(a, what);
    if (HasFailure()) return;
  }
}

TEST(RecoverLoopNest, RasterPeriodBecomesTwoLoops) {
  // An 8x4 raster pass repeated 5 times: pass x row x col with the affine
  // access row=o, col=j.
  std::vector<std::uint32_t> period;
  for (std::uint32_t r = 0; r < 4; ++r)
    for (std::uint32_t c = 0; c < 8; ++c) period.push_back(r * 8 + c);
  CompressedTrace ct;
  ct.geometry = {8, 4};
  ct.period = period;
  ct.repeats = 5;
  const auto rec = recover_loop_nest(ct);
  ASSERT_TRUE(rec.has_value());
  ASSERT_EQ(rec->nest.loops().size(), 3u);
  EXPECT_EQ(rec->nest.loops()[0].name, "pass");
  EXPECT_EQ(rec->nest.iterations(), ct.length());
  EXPECT_EQ(rec->nest.trace(rec->access, ct.geometry).linear(),
            ct.expand().linear());
}

TEST(RecoverLoopNest, StridedPeriodBecomesOneLoop) {
  // Stride-5 sweep over a 5x5 array: linear in one induction variable.
  std::vector<std::uint32_t> period;
  for (std::uint32_t i = 0; i < 5; ++i) period.push_back(i * 5);
  CompressedTrace ct;
  ct.geometry = {5, 5};
  ct.period = period;
  ct.repeats = 3;
  const auto rec = recover_loop_nest(ct);
  ASSERT_TRUE(rec.has_value());
  ASSERT_EQ(rec->nest.loops().size(), 2u);  // pass + i
  EXPECT_EQ(rec->nest.trace(rec->access, ct.geometry).linear(),
            ct.expand().linear());
}

TEST(RecoverLoopNest, SinglePassOmitsPassLoop) {
  CompressedTrace ct;
  ct.geometry = {8, 8};
  ct.period = {0, 1, 2, 3};
  ct.repeats = 1;
  const auto rec = recover_loop_nest(ct);
  ASSERT_TRUE(rec.has_value());
  ASSERT_EQ(rec->nest.loops().size(), 1u);
  EXPECT_EQ(rec->nest.trace(rec->access, ct.geometry).linear(),
            ct.expand().linear());
}

TEST(RecoverLoopNest, RejectsNonAffineAndImpure) {
  CompressedTrace zig;
  zig.geometry = {8, 8};
  zig.period = zigzag({8, 8}).linear();  // not affine in any 1/2 loops
  zig.repeats = 2;
  EXPECT_FALSE(recover_loop_nest(zig).has_value());

  CompressedTrace impure;
  impure.geometry = {8, 8};
  impure.prefix = {63};
  impure.period = {0, 1};
  impure.repeats = 4;
  EXPECT_FALSE(recover_loop_nest(impure).has_value());
}

TEST(RecoverLoopNest, RecoversGeneratedLoopNestPrograms) {
  // Feed the trace of a known affine program through compression + recovery
  // and require the recovered nest to reproduce it exactly.
  const auto prog = raster_program({16, 8});
  const auto one_pass = prog.nest.trace(prog.access, prog.geometry);
  const auto t = make(tile(one_pass.linear(), 6), prog.geometry);
  const CompressedTrace ct = compress_periodic(t);
  ASSERT_TRUE(ct.pure());
  EXPECT_EQ(ct.repeats, 6u);
  const auto rec = recover_loop_nest(ct);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->nest.trace(rec->access, ct.geometry).linear(), t.linear());
}

}  // namespace
}  // namespace addm::seq
