// Randomized properties tying the streaming pipeline to its materializing
// counterparts:
//  * TraceReader == read_trace on arbitrary generated inputs, for both
//    parsed traces and error messages, at adversarial chunk sizes;
//  * compress -> expand is the identity on every suite trace and on
//    randomized prefix + k x period + tail constructions;
//  * exploration reports are byte-identical with compression on vs off for
//    every synthetic-suite trace (they are all aperiodic), and compressed
//    evaluation of a pure periodic trace is annotated and period-priced.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/batch_explorer.hpp"
#include "core/explorer.hpp"
#include "seq/periodicity.hpp"
#include "seq/stream_io.hpp"
#include "seq/trace_io.hpp"
#include "seq/workloads.hpp"

namespace addm::seq {
namespace {

// Random trace-format text: usually valid, sometimes deliberately broken
// (bad tokens, misplaced/duplicate directives, out-of-range addresses).
std::string random_trace_text(std::mt19937& rng) {
  std::uniform_int_distribution<int> pct(0, 99);
  std::ostringstream os;
  const std::size_t w = 1 + rng() % 9;
  const std::size_t h = 1 + rng() % 9;
  bool geometry_written = false;
  const int lines = 1 + static_cast<int>(rng() % 12);
  for (int l = 0; l < lines; ++l) {
    const int roll = pct(rng);
    if (!geometry_written && roll < 60) {
      os << "geometry " << w << " " << h;
      if (pct(rng) < 5) os << " trailing";
      geometry_written = true;
    } else if (roll < 8) {
      os << "# a comment with tokens 1 2 3";
    } else if (roll < 12) {
      os << "name t" << rng() % 100;
      if (pct(rng) < 10) os << " extra";
    } else if (roll < 16) {
      // empty or whitespace-only line
      if (pct(rng) < 50) os << "   \t ";
    } else if (roll < 20) {
      os << "geometry " << w << " " << h;  // possible duplicate
    } else {
      const int n = 1 + static_cast<int>(rng() % 20);
      for (int i = 0; i < n; ++i) {
        if (i) os << (pct(rng) < 10 ? "\t" : " ");
        const int kind = pct(rng);
        if (kind < 88) {
          os << rng() % (w * h + (pct(rng) < 6 ? 2 : 0));  // mostly in range
        } else if (kind < 92) {
          os << "-" << rng() % 10;
        } else if (kind < 96) {
          os << rng() % 100 << "x";
        } else {
          os << "bogus";
        }
      }
      if (pct(rng) < 15) os << "  # trailing comment";
    }
    if (l + 1 < lines || pct(rng) < 80) os << "\n";
  }
  return os.str();
}

struct ReadOutcome {
  bool ok = false;
  std::string error;
  std::vector<std::uint32_t> linear;
  ArrayGeometry geometry;
  std::string name;
};

ReadOutcome run_batch(const std::string& text) {
  ReadOutcome out;
  try {
    const AddressTrace t = read_trace_string(text);
    out.ok = true;
    out.linear = t.linear();
    out.geometry = t.geometry();
    out.name = t.name();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

ReadOutcome run_stream(const std::string& text, std::size_t chunk) {
  ReadOutcome out;
  try {
    std::istringstream in(text);
    TraceReader reader(in, chunk);
    const AddressTrace t = reader.read_all();
    out.ok = true;
    out.linear = t.linear();
    out.geometry = t.geometry();
    out.name = t.name();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

TEST(StreamProperty, ReaderMatchesReadTraceOnRandomInputs) {
  std::mt19937 rng(20260808);
  for (int trial = 0; trial < 400; ++trial) {
    const std::string text = random_trace_text(rng);
    const ReadOutcome batch = run_batch(text);
    const std::size_t chunk = 1 + rng() % 40;
    const ReadOutcome stream = run_stream(text, chunk);
    ASSERT_EQ(stream.ok, batch.ok) << "trial " << trial << " chunk " << chunk
                                   << "\n---\n" << text << "\n---\nbatch: "
                                   << batch.error << "\nstream: " << stream.error;
    if (batch.ok) {
      EXPECT_EQ(stream.linear, batch.linear) << "trial " << trial;
      EXPECT_EQ(stream.geometry, batch.geometry) << "trial " << trial;
      EXPECT_EQ(stream.name, batch.name) << "trial " << trial;
    } else {
      EXPECT_EQ(stream.error, batch.error)
          << "trial " << trial << " chunk " << chunk << "\n---\n" << text;
    }
  }
}

TEST(StreamProperty, CompressExpandRoundTripsEverySuiteTrace) {
  for (const auto& t : standard_suite({8, 8})) {
    const CompressedTrace ct = compress_periodic(t);
    const AddressTrace back = ct.expand();
    EXPECT_EQ(back.linear(), t.linear()) << t.name();
    EXPECT_EQ(back.geometry(), t.geometry()) << t.name();
    EXPECT_EQ(back.name(), t.name()) << t.name();
    // Byte-for-byte through the writer as well.
    EXPECT_EQ(write_trace_string(back), write_trace_string(t)) << t.name();
  }
  for (const auto& t : scaled_suite({8, 8}, 3)) {
    EXPECT_EQ(compress_periodic(t).expand().linear(), t.linear()) << t.name();
  }
}

TEST(StreamProperty, CompressExpandRoundTripsRandomFactorizations) {
  std::mt19937 rng(77);
  const ArrayGeometry g{16, 16};
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint32_t> a;
    const std::size_t prefix_len = rng() % 6;
    const std::size_t period_len = 1 + rng() % 12;
    const std::size_t repeats = 1 + rng() % 40;
    std::vector<std::uint32_t> period(period_len);
    for (auto& v : period) v = rng() % g.size();
    for (std::size_t i = 0; i < prefix_len; ++i) a.push_back(rng() % g.size());
    for (std::size_t r = 0; r < repeats; ++r)
      a.insert(a.end(), period.begin(), period.end());
    const std::size_t tail = rng() % period_len;
    a.insert(a.end(), period.begin(), period.begin() + static_cast<long>(tail));

    const AddressTrace t(g, a, "r" + std::to_string(trial));
    const CompressedTrace ct = compress_periodic(t);
    // Exactness is unconditional...
    const AddressTrace back = ct.expand();
    ASSERT_EQ(back.linear(), t.linear()) << "trial " << trial;
    EXPECT_EQ(back.name(), t.name());
    // ...and the factorization never stores more than the construction
    // (it may store less when the random period is itself periodic).
    EXPECT_LE(ct.stored(), prefix_len + period_len) << "trial " << trial;
  }
}

TEST(StreamProperty, StreamingAgreesWithBatchCompressionOnRandomStreams) {
  std::mt19937 rng(99);
  const ArrayGeometry g{8, 8};
  for (int trial = 0; trial < 200; ++trial) {
    // Small alphabets make accidental periods (and lock/unlock churn) likely.
    const std::uint32_t alphabet = 1 + rng() % 4;
    const std::size_t n = 1 + rng() % 120;
    std::vector<std::uint32_t> a(n);
    for (auto& v : a) v = rng() % alphabet;
    StreamingCompressor sc;
    for (std::uint32_t v : a) sc.push(v);
    const CompressedTrace streamed = sc.finish(g, "s");
    const CompressedTrace batch = compress_periodic(AddressTrace(g, a, "s"));
    EXPECT_EQ(streamed.prefix, batch.prefix) << "trial " << trial;
    EXPECT_EQ(streamed.period, batch.period) << "trial " << trial;
    EXPECT_EQ(streamed.repeats, batch.repeats) << "trial " << trial;
    EXPECT_EQ(streamed.tail, batch.tail) << "trial " << trial;
    EXPECT_EQ(streamed.expand().linear(), a) << "trial " << trial;
  }
}

}  // namespace
}  // namespace addm::seq

namespace addm::core {
namespace {

TEST(StreamProperty, SuiteReportsByteIdenticalWithCompression) {
  // Every synthetic-suite trace is aperiodic, so compression must be a
  // strict no-op on the report bytes — only the cache keys differ.
  const auto traces = seq::standard_suite({8, 8});
  BatchOptions plain;
  plain.threads = 1;
  BatchOptions compressed = plain;
  compressed.explore.compress_periodic = true;
  BatchExplorer a(plain), b(compressed);
  const std::string report_a = batch_report_csv(a.run(traces));
  const std::string report_b = batch_report_csv(b.run(traces));
  EXPECT_EQ(report_a, report_b);
}

TEST(StreamProperty, PeriodicTraceIsAnnotatedAndPeriodPriced) {
  // 200 passes over an 8-access loop: compressed evaluation must annotate
  // every note and make the FSM candidates feasible (8 states, not 1600).
  std::vector<std::uint32_t> linear;
  for (int r = 0; r < 200; ++r)
    for (std::uint32_t v : {0u, 1u, 2u, 3u, 8u, 9u, 10u, 11u}) linear.push_back(v);
  const seq::AddressTrace trace({8, 8}, linear, "loop");

  ExploreOptions opt;
  opt.compress_periodic = true;
  ExploreOptions off;
  ASSERT_EQ(ExploreOptions{}.max_fsm_states, 1024u);

  const auto compressed = explore_generators(trace, opt);
  const auto plain = explore_generators(trace, off);
  ASSERT_EQ(compressed.size(), plain.size());
  bool fsm_gained = false;
  for (std::size_t i = 0; i < compressed.size(); ++i) {
    EXPECT_NE(compressed[i].note.find("[periodic 200x8]"), std::string::npos)
        << compressed[i].architecture << ": " << compressed[i].note;
    if (!plain[i].feasible && compressed[i].feasible) fsm_gained = true;
  }
  // 1600 states exceeds the default FSM budget, one period does not.
  EXPECT_TRUE(fsm_gained);

  // The pure-period representative equals exploring the period directly.
  const seq::AddressTrace one_period(
      {8, 8}, {0u, 1u, 2u, 3u, 8u, 9u, 10u, 11u}, "loop");
  const auto direct = explore_generators(one_period, ExploreOptions{});
  for (std::size_t i = 0; i < compressed.size(); ++i) {
    EXPECT_EQ(compressed[i].architecture, direct[i].architecture);
    EXPECT_EQ(compressed[i].feasible, direct[i].feasible);
    EXPECT_EQ(compressed[i].metrics.area_units, direct[i].metrics.area_units) << i;
    EXPECT_EQ(compressed[i].metrics.delay_ns, direct[i].metrics.delay_ns) << i;
  }
}

TEST(StreamProperty, CompressionDeterministicAcrossThreadCounts) {
  std::vector<std::uint32_t> linear;
  for (int r = 0; r < 64; ++r)
    for (std::uint32_t v : {0u, 9u, 18u, 27u}) linear.push_back(v);
  const seq::AddressTrace diag({8, 8}, linear, "diag");
  const std::vector<seq::AddressTrace> traces = {diag, seq::incremental({8, 8}), diag};
  BatchOptions opt;
  opt.threads = 1;
  opt.memoize = false;
  opt.explore.compress_periodic = true;
  const std::string serial = batch_report_csv(BatchExplorer(opt).run(traces));
  EXPECT_NE(serial.find("[periodic 64x4]"), std::string::npos);
  for (std::size_t threads : {2u, 4u}) {
    opt.threads = threads;
    EXPECT_EQ(batch_report_csv(BatchExplorer(opt).run(traces)), serial) << threads;
  }
}

}  // namespace
}  // namespace addm::core
