// Tests for exact periodicity compression: factorization shapes, streaming
// memory behavior (lock/unlock), batch==streaming agreement, and affine
// loop-nest recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "seq/analysis.hpp"
#include "seq/periodicity.hpp"
#include "seq/workloads.hpp"

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

TEST(StreamingCompressor, LocksToPeriodMemory) {
  const std::vector<std::uint32_t> period{0, 1, 2, 3, 8, 9, 10, 11};
  StreamingCompressor sc;
  for (std::size_t r = 0; r < 1000; ++r)
    for (std::uint32_t v : period) sc.push(v);
  EXPECT_TRUE(sc.locked());
  // The memory claim: after locking, only one period is held, no matter how
  // long the stream runs.
  EXPECT_EQ(sc.buffered(), period.size());
  EXPECT_EQ(sc.count(), 8000u);
  const CompressedTrace ct = sc.finish({8, 8});
  EXPECT_EQ(ct.period, period);
  EXPECT_EQ(ct.repeats, 1000u);
}

TEST(StreamingCompressor, UnlocksOnMismatchWithoutLosingData) {
  StreamingCompressor sc;
  std::vector<std::uint32_t> fed;
  const auto feed = [&](std::uint32_t v) {
    sc.push(v);
    fed.push_back(v);
  };
  for (std::size_t r = 0; r < 50; ++r)
    for (std::uint32_t v : {1u, 2u, 3u}) feed(v);
  ASSERT_TRUE(sc.locked());
  feed(9);  // break the period mid-stream
  for (std::uint32_t v : {1u, 2u, 3u, 5u}) feed(v);
  const CompressedTrace ct = sc.finish({8, 8});
  EXPECT_EQ(ct.expand().linear(), fed);
}

TEST(StreamingCompressor, FinishIsNonDestructive) {
  StreamingCompressor sc;
  for (std::uint32_t v : tile({4, 5}, 3)) sc.push(v);
  const CompressedTrace first = sc.finish({8, 8});
  EXPECT_EQ(first.repeats, 3u);
  for (std::uint32_t v : {4u, 5u}) sc.push(v);
  const CompressedTrace second = sc.finish({8, 8});
  EXPECT_EQ(second.repeats, 4u);
  EXPECT_EQ(second.period, first.period);
}

TEST(StreamingCompressor, AgreesWithBatchOnArbitraryInput) {
  // compress_periodic is defined as the streaming compressor fed in order,
  // so any divergence here is a determinism bug.
  const auto t = zigzag({8, 8});
  StreamingCompressor sc;
  for (std::uint32_t v : t.linear()) sc.push(v);
  const CompressedTrace a = sc.finish(t.geometry(), t.name());
  const CompressedTrace b = compress_periodic(t);
  EXPECT_EQ(a.prefix, b.prefix);
  EXPECT_EQ(a.period, b.period);
  EXPECT_EQ(a.repeats, b.repeats);
  EXPECT_EQ(a.tail, b.tail);
}

TEST(StreamingCompressor, PushSpanMatchesPerAddressPush) {
  // Periodic stretches broken by noise: the compressor locks, unlocks on the
  // break and relocks, and spans of random length cut across every phase.
  std::mt19937 rng(4242);
  const ArrayGeometry g{8, 8};
  int relocked_trials = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint32_t> a;
    const int segments = 1 + static_cast<int>(rng() % 4);
    for (int s = 0; s < segments; ++s) {
      std::vector<std::uint32_t> period(1 + rng() % 9);
      for (auto& v : period) v = rng() % 5;
      const std::size_t len = rng() % 120;
      for (std::size_t i = 0; i < len; ++i) a.push_back(period[i % period.size()]);
      for (std::size_t i = rng() % 3; i > 0; --i) a.push_back(rng() % 64);
    }
    StreamingCompressor one, span;
    std::size_t locks = 0;
    for (std::size_t i = 0; i < a.size();) {
      const std::size_t n = std::min<std::size_t>(a.size() - i, rng() % 40);
      for (std::size_t k = i; k < i + n; ++k) {
        const bool was_locked = one.locked();
        one.push(a[k]);
        locks += !was_locked && one.locked();
      }
      span.push_span(a.data() + i, n);
      i += n;
      ASSERT_EQ(span.count(), one.count()) << "trial " << trial;
      ASSERT_EQ(span.locked(), one.locked()) << "trial " << trial << " at " << i;
      ASSERT_EQ(span.buffered(), one.buffered()) << "trial " << trial << " at " << i;
    }
    const CompressedTrace x = one.finish(g, "t"), y = span.finish(g, "t");
    EXPECT_EQ(y.prefix, x.prefix) << "trial " << trial;
    EXPECT_EQ(y.period, x.period) << "trial " << trial;
    EXPECT_EQ(y.repeats, x.repeats) << "trial " << trial;
    EXPECT_EQ(y.tail, x.tail) << "trial " << trial;
    relocked_trials += locks >= 2;
  }
  EXPECT_GT(relocked_trials, 20);
  // Explicit lock -> break -> relock through one span.
  std::vector<std::uint32_t> a;
  for (int r = 0; r < 6; ++r) a.insert(a.end(), {1, 2, 3});
  a.push_back(7);
  for (int r = 0; r < 6; ++r) a.insert(a.end(), {1, 2, 3});
  StreamingCompressor one, span;
  for (std::uint32_t v : a) one.push(v);
  span.push_span(a.data(), a.size());
  EXPECT_EQ(span.finish(g).period, one.finish(g).period);
  EXPECT_EQ(span.finish(g).prefix, one.finish(g).prefix);
  EXPECT_EQ(span.buffered(), one.buffered());
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
