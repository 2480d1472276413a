// Tests for address-trace text serialization: round trips, format features
// (comments, multi-line, name), and line-numbered error diagnostics.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "seq/trace_io.hpp"
#include "seq/workloads.hpp"

namespace addm::seq {
namespace {

TEST(TraceIo, RoundTripMotionEstimation) {
  MotionEstimationParams p;
  p.img_width = p.img_height = 8;
  p.mb_width = p.mb_height = 4;
  p.m = 0;
  const auto original = motion_estimation_read(p);
  const auto text = write_trace_string(original);
  const auto parsed = read_trace_string(text);
  EXPECT_EQ(parsed.linear(), original.linear());
  EXPECT_EQ(parsed.geometry(), original.geometry());
  EXPECT_EQ(parsed.name(), original.name());
}

TEST(TraceIo, ParsesCommentsAndLayout) {
  const auto t = read_trace_string(
      "# header comment\n"
      "geometry 4 4   # inline comment\n"
      "name demo\n"
      "0 1\n"
      "\n"
      "4 5 # trailing comment\n");
  EXPECT_EQ(t.geometry(), (ArrayGeometry{4, 4}));
  EXPECT_EQ(t.name(), "demo");
  EXPECT_EQ(t.linear(), (std::vector<std::uint32_t>{0, 1, 4, 5}));
}

TEST(TraceIo, ErrorsCarryLineNumbers) {
  try {
    read_trace_string("geometry 4 4\n0 1\nbogus\n");
    FAIL() << "expected parse failure";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(TraceIo, RejectsMissingGeometry) {
  EXPECT_THROW(read_trace_string("0 1 2\n"), std::invalid_argument);
  EXPECT_THROW(read_trace_string("# nothing\n"), std::invalid_argument);
}

TEST(TraceIo, RejectsDuplicateGeometry) {
  EXPECT_THROW(read_trace_string("geometry 2 2\ngeometry 2 2\n0\n"),
               std::invalid_argument);
}

TEST(TraceIo, RejectsBadGeometry) {
  EXPECT_THROW(read_trace_string("geometry 0 4\n0\n"), std::invalid_argument);
  EXPECT_THROW(read_trace_string("geometry 4\n0\n"), std::invalid_argument);
  EXPECT_THROW(read_trace_string("geometry 4 4 9\n0\n"), std::invalid_argument);
  // Geometries whose linear addresses do not fit in 32 bits: a zero-width
  // row_of() division, or addresses silently wrapping to 0.
  EXPECT_THROW(read_trace_string("geometry 4294967296 1\n0 1 2 3\n"),
               std::invalid_argument);
  EXPECT_THROW(read_trace_string("geometry 65536 65537\n4294967296 1 2 3\n"),
               std::invalid_argument);
  EXPECT_THROW(read_trace_string("geometry -1 1\n0\n"), std::invalid_argument);
  // The same bound holds for traces built in memory.
  EXPECT_THROW(AddressTrace({std::size_t{1} << 32, 1}, {0}), std::invalid_argument);
  EXPECT_THROW(AddressTrace({65536, 65537}, {0}), std::invalid_argument);
  EXPECT_NO_THROW(AddressTrace({65536, 65536}, {0xffffffffu}));
}

TEST(TraceIo, HashEndsTokensInline) {
  const auto t = read_trace_string("geometry 4 4#x\nname a#b\n1#3\n2\t0003#4 5\r\n");
  EXPECT_EQ(t.geometry(), (ArrayGeometry{4, 4}));
  EXPECT_EQ(t.name(), "a");
  EXPECT_EQ(t.linear(), (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(TraceIo, RejectsOutOfRangeAddress) {
  try {
    read_trace_string("geometry 2 2\n0 4\n");
    FAIL() << "expected parse failure";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("outside"), std::string::npos);
  }
}

TEST(TraceIo, RejectsSignedAddressTokens) {
  // "-1" used to slip through std::stoul by wrapping to a huge unsigned
  // value; both sign prefixes must be rejected as non-addresses.
  for (const char* tok : {"-1", "+1"}) {
    try {
      read_trace_string(std::string("geometry 2 2\n0 ") + tok + "\n");
      FAIL() << "expected parse failure for token " << tok;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("not an address"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
  }
}

TEST(TraceIo, RejectsDuplicateName) {
  // `name` used to silently accept a second directive (last one won) while
  // `geometry` rejected duplicates; the two directives now validate alike.
  try {
    read_trace_string("geometry 2 2\nname a\nname b\n0\n");
    FAIL() << "expected parse failure";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate name"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(TraceIo, RejectsTrailingNameTokens) {
  // Trailing tokens after the identifier used to be silently dropped.
  try {
    read_trace_string("geometry 2 2\nname demo junk\n0\n");
    FAIL() << "expected parse failure";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("trailing token 'junk'"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(TraceIo, RejectsMissingNameValue) {
  try {
    read_trace_string("geometry 2 2\nname\n0\n");
    FAIL() << "expected parse failure";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("expected 'name <identifier>'"),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, NameCommentAndPlacementStillAccepted) {
  // A comment after the identifier is not a trailing token, and the
  // directive may still appear after address lines.
  const auto t = read_trace_string("geometry 2 2\n0 1\nname late # ok\n2\n");
  EXPECT_EQ(t.name(), "late");
  EXPECT_EQ(t.linear(), (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(TraceIo, RejectsEmptyTrace) {
  EXPECT_THROW(read_trace_string("geometry 2 2\n"), std::invalid_argument);
}

TEST(TraceIo, WriterWrapsLines) {
  const auto t = incremental({8, 8});
  const auto text = write_trace_string(t);
  // 64 addresses at 16 per line -> at least 4 address lines.
  std::size_t lines = 0;
  for (char c : text) lines += (c == '\n');
  EXPECT_GE(lines, 6u);  // header + geometry + name + 4 data lines
}

TEST(TraceIoFile, RoundTripThroughDisk) {
  const auto original = transpose_read({8, 4});
  const std::string path = ::testing::TempDir() + "trace_io_file_roundtrip.trace";
  write_trace_file(path, original);
  const auto parsed = read_trace_file(path);
  EXPECT_EQ(parsed.linear(), original.linear());
  EXPECT_EQ(parsed.geometry(), original.geometry());
  EXPECT_EQ(parsed.name(), original.name());
  std::remove(path.c_str());
}

TEST(TraceIoFile, MissingFileThrowsWithPath) {
  try {
    read_trace_file("/nonexistent/dir/missing.trace");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("missing.trace"), std::string::npos);
  }
}

TEST(TraceIoFile, UnwritablePathThrows) {
  const auto t = incremental({4, 4});
  EXPECT_THROW(write_trace_file("/nonexistent/dir/out.trace", t), std::runtime_error);
}

}  // namespace
}  // namespace addm::seq
