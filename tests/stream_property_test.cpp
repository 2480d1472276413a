// Randomized properties of trace ingestion and periodicity compression:
//  * TraceReader (and read_trace, which wraps it) == the test-only reference
//    parser on arbitrary generated inputs, for both parsed traces and error
//    messages, at every chunk size from 1 to 40 bytes and at 64 KiB;
//  * compress -> expand is the identity on every suite trace and on
//    randomized prefix + k x period + tail constructions;
//  * exploration reports are byte-identical with compression on vs off for
//    every synthetic-suite trace (they are all aperiodic), and compressed
//    evaluation of a pure periodic trace is annotated and period-priced.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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
#include "trace_reference.hpp"

namespace addm::seq {
namespace {

// Random trace-format text: usually valid, sometimes deliberately broken
// (bad tokens, misplaced/duplicate directives, out-of-range addresses).
// Covers every whitespace byte (CRLF line ends, \v, \f), leading zeros,
// '#' glued to a token, tokens of 9, 10, 20 and 21 digits around the
// tokenizer's 9-digit fast path and ULONG_MAX, and geometries at and beyond
// the 32-bit address bound.
std::string random_trace_text(std::mt19937& rng) {
  std::uniform_int_distribution<int> pct(0, 99);
  // A clean text holds only valid constructs, so about half the trials
  // parse and the other half exercise the diagnostics.
  const bool clean = pct(rng) < 50;
  auto digits = [&](int n) {
    std::string d;
    for (int i = 0; i < n; ++i)
      d += static_cast<char>('0' + (i == 0 ? 1 + rng() % 9 : rng() % 10));
    return d;
  };
  std::ostringstream os;
  std::size_t w = 1 + rng() % 9;
  std::size_t h = 1 + rng() % 9;
  std::string dims = std::to_string(w) + " " + std::to_string(h);
  const bool big = pct(rng) < 15;
  if (big) {
    static const char* const kBig[] = {"65536 65536", "1 4294967295", "4294967296 1",
                                       "65536 65537", "-1 1",         "4294967295 2"};
    dims = kBig[clean || pct(rng) < 50 ? rng() % 2 : 2 + rng() % 4];
    w = h = 65536;  // addresses stay small; the bound decides validity
  }
  const std::size_t range = std::min<std::size_t>(w * h, 1000);
  static const char* const kSeparators[] = {" ", "\t", "\v", "\f", "\r"};
  bool geometry_written = false, name_written = false;
  const int lines = 1 + static_cast<int>(rng() % 12);
  for (int l = 0; l < lines; ++l) {
    const int roll = pct(rng);
    if (!geometry_written && (roll < 60 || clean)) {
      os << "geometry " << dims;
      if (!clean && pct(rng) < 5) os << " trailing";
      if (pct(rng) < 5) os << "#glued";
      geometry_written = true;
    } else if (roll < 8) {
      os << "# a comment with tokens 1 2 3";
    } else if (roll < 12 && !(clean && name_written)) {
      os << "name t" << rng() % 100;
      if (!clean && pct(rng) < 10) os << " extra";
      if (pct(rng) < 10) os << "#c";
      name_written = true;
    } else if (roll < 16) {
      // empty or whitespace-only line
      if (pct(rng) < 50) os << "   \t\v\f ";
    } else if (roll < 20 && !clean) {
      os << "geometry " << dims;  // possible duplicate
    } else {
      const int n = 1 + static_cast<int>(rng() % 20);
      for (int i = 0; i < n; ++i) {
        if (i) os << kSeparators[pct(rng) < 80 ? 0 : rng() % 5];
        const int kind = pct(rng);
        if (kind < 75) {
          os << rng() % (range + (!clean && pct(rng) < 6 ? 2 : 0));  // mostly in range
        } else if (kind < 82) {
          // Leading zeros, padding in-range values to 9, 10 or 20 digits.
          const std::string v = std::to_string(rng() % range);
          const std::size_t width = std::array<std::size_t, 4>{2, 9, 10, 20}[rng() % 4];
          os << std::string(width > v.size() ? width - v.size() : 0, '0') << v;
        } else if (kind < 85) {
          os << rng() % range << "#" << rng() % 10;  // '#' glued to a token
        } else if (clean || pct(rng) < 70) {
          // 10-digit addresses are valid only in the big arrays.
          if (big) os << 1000000000u + rng() % 3294967295u;
          else os << rng() % range;
        } else if (big && pct(rng) < 50) {
          // 10 digits past 2^32, where 32-bit arithmetic would wrap into
          // the array.
          os << 4294967296ull + rng() % 5705032704ull;
        } else {
          switch (rng() % 9) {
            case 0: os << (pct(rng) < 50 ? "-" : "+") << rng() % 10; break;
            case 1: os << rng() % 100 << "x"; break;
            case 2: os << "bogus"; break;
            case 3: os << digits(9); break;
            case 4: os << digits(10); break;
            case 5: os << "18446744073709551615"; break;  // ULONG_MAX
            case 6: os << "18446744073709551616"; break;  // ULONG_MAX + 1
            case 7: os << digits(20); break;
            default: os << digits(21); break;
          }
        }
      }
      if (pct(rng) < 15) os << "  # trailing comment";
    }
    if (l + 1 < lines || pct(rng) < 80) os << (pct(rng) < 20 ? "\r\n" : "\n");
  }
  return os.str();
}

using reference::read_outcome;
using reference::ReadOutcome;

ReadOutcome run_stream(const std::string& text, std::size_t chunk) {
  return read_outcome([&] {
    std::istringstream in(text);
    TraceReader reader(in, chunk);
    return reader.read_all();
  });
}

TEST(StreamProperty, ReaderMatchesReferenceOnRandomInputs) {
  std::mt19937 rng(20260808);
  std::vector<std::size_t> chunks;
  for (std::size_t c = 1; c <= 40; ++c) chunks.push_back(c);
  chunks.push_back(TraceReader::kDefaultChunkBytes);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::string text = random_trace_text(rng);
    const ReadOutcome expected =
        read_outcome([&] { return reference::read_trace_string(text); });
    accepted += expected.ok;
    ASSERT_EQ(read_outcome([&] { return read_trace_string(text); }), expected)
        << "trial " << trial << "\n---\n" << text << "\n---\nreference: " << expected.error;
    for (std::size_t chunk : chunks) {
      const ReadOutcome got = run_stream(text, chunk);
      ASSERT_EQ(got, expected) << "trial " << trial << " chunk " << chunk << "\n---\n"
                               << text << "\n---\nreference: " << expected.error
                               << "\nreader: " << got.error;
    }
  }
  // The generator must exercise both outcomes.
  EXPECT_GT(accepted, 40u);
  EXPECT_LT(accepted, 360u);
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
