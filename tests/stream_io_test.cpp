// Tests for the trace reader (chunk-boundary handling, output and error
// parity with the test-only reference parser) and the valgrind/lackey log
// importer.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "seq/stream_io.hpp"
#include "seq/trace_io.hpp"
#include "seq/workloads.hpp"
#include "trace_reference.hpp"

namespace addm::seq {
namespace {

AddressTrace stream_read(const std::string& text, std::size_t chunk) {
  std::istringstream in(text);
  TraceReader reader(in, chunk);
  return reader.read_all();
}

TEST(TraceReader, EveryChunkSizeProducesTheSameTrace) {
  // Exercise every line-vs-chunk alignment, including chunks smaller than a
  // token and a final line without a newline.
  const std::string text =
      "# comment line\n"
      "geometry 16 4   # inline\n"
      "\n"
      "name chunky\n"
      "0 1 2 3 10 11 12 13\n"
      "60 61 62 63";
  const auto expected = reference::read_trace_string(text);
  for (std::size_t chunk : {1u, 2u, 3u, 5u, 7u, 16u, 64u, 4096u}) {
    const auto got = stream_read(text, chunk);
    EXPECT_EQ(got.linear(), expected.linear()) << "chunk " << chunk;
    EXPECT_EQ(got.geometry(), expected.geometry()) << "chunk " << chunk;
    EXPECT_EQ(got.name(), expected.name()) << "chunk " << chunk;
  }
}

TEST(TraceReader, ErrorsMatchReference) {
  const std::vector<std::string> bad = {
      "0 1 2\n",                          // addresses before geometry
      "geometry 2 2\ngeometry 2 2\n0\n",  // duplicate geometry
      "geometry 0 4\n0\n",                // zero dimension
      "geometry 4\n0\n",                  // missing height
      "geometry 4 4 9\n0\n",              // trailing token
      "geometry 2 2\n0 4\n",              // out of range
      "geometry 2 2\n0 -1\n",             // signed token
      "geometry 2 2\n0 1e5\n",            // partial numeric token
      "geometry 2 2\nname\n0\n",          // missing name value
      "geometry 2 2\nname a b\n0\n",      // trailing name token
      "geometry 2 2\nname a\nname b\n0\n",  // duplicate name
      "geometry 2 2\n",                   // no addresses
      "# nothing\n",                      // missing geometry
      "geometry 4294967296 1\n0 1 2 3\n",          // width beyond 32 bits
      "geometry 65536 65537\n4294967296 1 2 3\n",  // more than 2^32 cells
      "geometry 2 2\n0 18446744073709551616\n",    // overflows unsigned long
      "geometry 2 2\n0 1234567890\n",             // 10 digits, out of range
      "geometry 65536 65536\n0 4294967296\n",     // 2^32: one past the last cell
      "geometry 65536 65536\n9999999999\n",       // would wrap in 32 bits
      "geometry 2 2\n0 12#3 x\n1 0003\n0 7",      // '#' glued to a token
  };
  for (const std::string& text : bad) {
    const auto expected =
        reference::read_outcome([&] { return reference::read_trace_string(text); });
    ASSERT_FALSE(expected.error.empty()) << text;
    for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, TraceReader::kDefaultChunkBytes})
      EXPECT_EQ(reference::read_outcome([&] { return stream_read(text, chunk); }), expected)
          << text << " chunk " << chunk;
    EXPECT_EQ(reference::read_outcome([&] { return read_trace_string(text); }), expected)
        << text;
  }
}

TEST(TraceReader, GeometryBeyond32BitsIsALineNumberedError) {
  for (const char* text : {"# big\ngeometry 4294967296 1\n0 1 2 3\n",
                           "# big\ngeometry 65536 65537\n4294967296 1 2 3\n"}) {
    try {
      read_trace_string(text);
      FAIL() << text;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("trace parse error at line 2: geometry ", 0), 0u) << what;
      EXPECT_NE(what.find("is too large (at most 2^32 cells, each side below 2^32)"),
                std::string::npos)
          << what;
    }
  }
  // The largest addressable arrays still parse: 2^32 cells, or a side of
  // 2^32 - 1.
  EXPECT_EQ(read_trace_string("geometry 65536 65536\n4294967295\n").linear(),
            (std::vector<std::uint32_t>{4294967295u}));
  EXPECT_EQ(read_trace_string("geometry 1 4294967295\n4294967294\n").linear(),
            (std::vector<std::uint32_t>{4294967294u}));
}

TEST(TraceReader, MatchesReadTraceOnGeneratedSuite) {
  for (const auto& t : standard_suite({8, 8})) {
    const std::string text = write_trace_string(t);
    const auto got = stream_read(text, 64);
    EXPECT_EQ(got.linear(), t.linear()) << t.name();
    EXPECT_EQ(got.name(), t.name());
  }
}

LackeyImportOptions geom_opt(std::size_t w, std::size_t h) {
  LackeyImportOptions opt;
  opt.geometry = {w, h};
  return opt;
}

AddressTrace import_text(const std::string& text, const LackeyImportOptions& opt) {
  std::istringstream in(text);
  return import_lackey(in, opt);
}

TEST(LackeyImport, ParsesLoadsStoresAndSkipsChatter) {
  const std::string log =
      "==1234== Lackey, an example Valgrind tool\n"
      "I  0x40001000,4\n"
      " L 40100000,4\n"
      " L 0x40100004,4\n"
      " S 40100008,8\n"
      "\n"
      " M 4010000c,4\n"
      "==1234== done\n";
  const auto t = import_text(log, geom_opt(4, 4));
  // Instruction fetch excluded by default; base = first data address.
  EXPECT_EQ(t.linear(), (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(t.geometry(), (ArrayGeometry{4, 4}));
}

TEST(LackeyImport, KindsFilterSelectsMarkers) {
  const std::string log =
      "I 1000,4\n L 2000,4\n S 2004,4\n M 2008,4\n";
  LackeyImportOptions opt = geom_opt(8, 8);
  opt.kinds = "S";
  EXPECT_EQ(import_text(log, opt).linear(), (std::vector<std::uint32_t>{0}));
  opt.kinds = "LS";
  EXPECT_EQ(import_text(log, opt).linear(), (std::vector<std::uint32_t>{0, 1}));
  opt.kinds = "I";
  EXPECT_EQ(import_text(log, opt).linear(), (std::vector<std::uint32_t>{0}));
}

TEST(LackeyImport, ExplicitBaseAndWordSize) {
  LackeyImportOptions opt = geom_opt(4, 4);
  opt.auto_base = false;
  opt.base = 0x2000;
  opt.word_bytes = 8;
  // 0x2000 -> word 0, 0x2008 -> word 1, 0x200c folds onto word 1.
  const auto t = import_text(" L 2000,4\n L 2008,4\n L 200c,4\n", opt);
  EXPECT_EQ(t.linear(), (std::vector<std::uint32_t>{0, 1, 1}));
}

TEST(LackeyImport, NameAndTraceIoRoundTrip) {
  LackeyImportOptions opt = geom_opt(4, 4);
  opt.name = "imported";
  const auto t = import_text(" L 1000,4\n L 1004,4\n", opt);
  EXPECT_EQ(t.name(), "imported");
  const auto back = read_trace_string(write_trace_string(t));
  EXPECT_EQ(back.linear(), t.linear());
  EXPECT_EQ(back.name(), t.name());
}

TEST(LackeyImport, ErrorsCarryLineNumbers) {
  const struct {
    const char* log;
    const char* what;
  } cases[] = {
      {" L zz,4\n", "expected hex address"},
      {" L 1000 4\n", "expected ',<size>'"},
      {" L 1000,\n", "expected ',<size>'"},
      {" L 1000,4 junk\n", "trailing token"},
      {" X 1000,4\n", "unrecognized line"},
  };
  for (const auto& c : cases) {
    try {
      import_text(std::string("I 500,4\n") + c.log, geom_opt(8, 8));
      FAIL() << c.log;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.what), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
  }
}

TEST(LackeyImport, RejectsOutOfArrayAndBelowBase) {
  try {
    import_text(" L 1000,4\n L 9000,4\n", geom_opt(2, 2));
    FAIL() << "expected out-of-array failure";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("outside the 2x2 array"), std::string::npos)
        << e.what();
  }
  try {
    import_text(" L 1000,4\n L 0800,4\n", geom_opt(8, 8));
    FAIL() << "expected below-base failure";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("below the base"), std::string::npos)
        << e.what();
  }
}

TEST(LackeyImport, RejectsBadOptionsAndEmptyResult) {
  EXPECT_THROW(import_text(" L 0,4\n", geom_opt(0, 4)), std::invalid_argument);
  LackeyImportOptions bad_word = geom_opt(4, 4);
  bad_word.word_bytes = 0;
  EXPECT_THROW(import_text(" L 0,4\n", bad_word), std::invalid_argument);
  LackeyImportOptions bad_kinds = geom_opt(4, 4);
  bad_kinds.kinds = "LX";
  EXPECT_THROW(import_text(" L 0,4\n", bad_kinds), std::invalid_argument);
  // A log with only instruction fetches has no matching accesses under the
  // default LSM filter.
  EXPECT_THROW(import_text("I 1000,4\n", geom_opt(4, 4)), std::invalid_argument);
}

}  // namespace
}  // namespace addm::seq
