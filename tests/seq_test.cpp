// Tests for the sequence layer: trace splitting (Table 1 of the paper),
// analysis primitives (D/R/U/O/Z building blocks) and workload generators.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "seq/analysis.hpp"
#include "seq/trace.hpp"
#include "seq/workloads.hpp"

namespace addm::seq {
namespace {

using V = std::vector<std::uint32_t>;

TEST(Trace, RowColSplitRowMajor) {
  AddressTrace t({4, 4}, {0, 5, 10, 15});
  EXPECT_EQ(t.rows(), (V{0, 1, 2, 3}));
  EXPECT_EQ(t.cols(), (V{0, 1, 2, 3}));
}

TEST(Trace, RejectsOutOfRangeAddress) {
  EXPECT_THROW(AddressTrace({2, 2}, {4}), std::invalid_argument);
  EXPECT_THROW(AddressTrace({0, 2}, {}), std::invalid_argument);
}

TEST(Trace, Table1MotionEstimationExample) {
  // The paper's running example: 4x4 image, 2x2 macroblocks, m=0.
  MotionEstimationParams p;
  p.img_width = p.img_height = 4;
  p.mb_width = p.mb_height = 2;
  p.m = 0;
  const AddressTrace t = motion_estimation_read(p);
  // Table 1 (LinAS / RowAS / ColAS), verbatim from the paper.
  EXPECT_EQ(t.linear(), (V{0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15}));
  EXPECT_EQ(t.rows(), (V{0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3}));
  EXPECT_EQ(t.cols(), (V{0, 1, 0, 1, 2, 3, 2, 3, 0, 1, 0, 1, 2, 3, 2, 3}));
}

TEST(Workloads, MotionEstimationSearchRangeRepeatsBlocks) {
  MotionEstimationParams p;
  p.img_width = p.img_height = 4;
  p.mb_width = p.mb_height = 2;
  p.m = 1;  // 4 search iterations per block
  const AddressTrace t = motion_estimation_read(p);
  EXPECT_EQ(t.length(), 16u * 4u);
  // First block (addresses 0,1,4,5) scanned 4 times before moving on.
  for (int rep = 0; rep < 4; ++rep) {
    const std::size_t base = static_cast<std::size_t>(rep) * 4;
    EXPECT_EQ(t.linear()[base + 0], 0u);
    EXPECT_EQ(t.linear()[base + 1], 1u);
    EXPECT_EQ(t.linear()[base + 2], 4u);
    EXPECT_EQ(t.linear()[base + 3], 5u);
  }
}

TEST(Workloads, MotionEstimationValidation) {
  MotionEstimationParams p;
  p.img_width = 4;
  p.img_height = 4;
  p.mb_width = 3;  // does not tile
  p.mb_height = 2;
  EXPECT_THROW(motion_estimation_read(p), std::invalid_argument);
}

TEST(Workloads, IncrementalAndFifo) {
  const AddressTrace t = incremental({4, 2});
  EXPECT_EQ(t.length(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(t.linear()[i], i);
  EXPECT_TRUE(is_permutation_of_range(t.linear(), 8));
  EXPECT_EQ(fifo({4, 2}).linear(), t.linear());
}

TEST(Workloads, DctBlockColumnRead) {
  const AddressTrace t = dct_block_column_read({4, 4}, 2);
  // First 2x2 block read column-by-column: (0,0),(1,0),(0,1),(1,1).
  EXPECT_EQ(t.linear()[0], 0u);
  EXPECT_EQ(t.linear()[1], 4u);
  EXPECT_EQ(t.linear()[2], 1u);
  EXPECT_EQ(t.linear()[3], 5u);
  EXPECT_TRUE(is_permutation_of_range(t.linear(), 16));
}

TEST(Workloads, ZoomByTwoReadsEachPixelFourTimes) {
  const AddressTrace t = zoom_by_two_read({2, 2});
  EXPECT_EQ(t.length(), 16u);
  // Output row 0: source (0,0),(0,0),(0,1),(0,1); row 1 repeats it.
  EXPECT_EQ(t.linear(), (V{0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3}));
  std::vector<int> counts(4, 0);
  for (auto a : t.linear()) ++counts[a];
  for (int c : counts) EXPECT_EQ(c, 4);
}

TEST(Workloads, TransposeRead) {
  const AddressTrace t = transpose_read({3, 2});
  EXPECT_EQ(t.linear(), (V{0, 3, 1, 4, 2, 5}));
}

TEST(Workloads, BlockRasterMatchesMotionEstimation) {
  MotionEstimationParams p;
  p.img_width = p.img_height = 8;
  p.mb_width = p.mb_height = 4;
  p.m = 0;
  EXPECT_EQ(block_raster({8, 8}, 4, 4).linear(), motion_estimation_read(p).linear());
}

TEST(Workloads, StridedVisitsAll) {
  const AddressTrace t = strided({4, 4}, 3);  // gcd(3,16)=1
  EXPECT_EQ(t.linear()[0], 0u);
  EXPECT_EQ(t.linear()[1], 3u);
  std::vector<bool> seen(16, false);
  for (auto a : t.linear()) seen[a] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Workloads, ZigzagVisitsAllInAntiDiagonals) {
  const AddressTrace t = zigzag({4, 4});
  EXPECT_TRUE(is_permutation_of_range(t.linear(), 16));
  // The classic JPEG head: 0, then diagonal 1 downward (1,4), diagonal 2
  // upward (8,5,2), ...
  EXPECT_EQ(t.linear()[0], 0u);
  EXPECT_EQ(t.linear()[1], 1u);
  EXPECT_EQ(t.linear()[2], 4u);
  EXPECT_EQ(t.linear()[3], 8u);
  EXPECT_EQ(t.linear()[4], 5u);
  EXPECT_EQ(t.linear()[5], 2u);
}

TEST(Workloads, ZigzagNonSquare) {
  const AddressTrace t = zigzag({3, 2});
  EXPECT_TRUE(is_permutation_of_range(t.linear(), 6));
}

TEST(Workloads, RepeatEach) {
  const AddressTrace t = repeat_each(incremental({2, 2}), 3);
  EXPECT_EQ(t.linear(), (V{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3}));
  EXPECT_THROW(repeat_each(t, 0), std::invalid_argument);
}

TEST(Analysis, RunLengths) {
  EXPECT_EQ(run_lengths(V{0, 0, 1, 1, 1, 2}), (V{2, 3, 1}));
  EXPECT_EQ(run_lengths(V{5}), (V{1}));
  EXPECT_TRUE(run_lengths(V{}).empty());
}

TEST(Analysis, AllEqual) {
  EXPECT_TRUE(all_equal(V{2, 2, 2}));
  EXPECT_FALSE(all_equal(V{2, 3}));
  EXPECT_FALSE(all_equal(V{}));
}

TEST(Analysis, CollapseRuns) {
  EXPECT_EQ(collapse_runs(V{0, 0, 1, 1, 0, 0}), (V{0, 1, 0}));
  EXPECT_EQ(collapse_runs(V{7}), (V{7}));
}

TEST(Analysis, UniqueInOrder) {
  EXPECT_EQ(unique_in_order(V{5, 1, 5, 4, 1, 0}), (V{5, 1, 4, 0}));
}

TEST(Analysis, OccurrenceInfo) {
  const V reduced{0, 1, 0, 1, 2, 3, 2, 3};
  const V unique{0, 1, 2, 3};
  const auto info = occurrence_info(reduced, unique);
  EXPECT_EQ(info.occurrences, (V{2, 2, 2, 2}));
  EXPECT_EQ(info.first_pos, (V{0, 1, 4, 5}));
}

TEST(Analysis, SmallestPeriod) {
  EXPECT_EQ(smallest_period(V{1, 2, 1, 2, 1, 2}), 2u);
  EXPECT_EQ(smallest_period(V{1, 2, 3}), 3u);
  EXPECT_EQ(smallest_period(V{4, 4, 4}), 1u);
  // Partial trailing period still counts.
  EXPECT_EQ(smallest_period(V{1, 2, 3, 1, 2}), 3u);
}

TEST(Analysis, IsPermutationOfRange) {
  EXPECT_TRUE(is_permutation_of_range(V{2, 0, 1}, 3));
  EXPECT_FALSE(is_permutation_of_range(V{2, 0, 0}, 3));
  EXPECT_FALSE(is_permutation_of_range(V{0, 1}, 3));
}

// Every workload generator must stay within its declared geometry (the
// AddressTrace constructor enforces it; this sweep exercises the generators).
TEST(Workloads, GeneratorsProduceValidTraces) {
  for (std::size_t dim : {8u, 16u, 32u}) {
    const ArrayGeometry g{dim, dim};
    EXPECT_EQ(incremental(g).length(), dim * dim);
    EXPECT_EQ(dct_block_column_read(g, 8).length(), dim * dim);
    EXPECT_EQ(zoom_by_two_read(g).length(), 4 * dim * dim);
    EXPECT_EQ(transpose_read(g).length(), dim * dim);
    EXPECT_EQ(block_raster(g, 8, 8).length(), dim * dim);
    EXPECT_EQ(strided(g, 3).length(), dim * dim);
  }
}

TEST(Workloads, ScaledSuiteDoublesWidthThenHeight) {
  const auto suite = scaled_suite({8, 8}, 3);
  ASSERT_EQ(suite.size(), 3 * standard_suite({8, 8}).size());
  EXPECT_EQ(suite.front().geometry(), (ArrayGeometry{8, 8}));
  EXPECT_EQ(suite.back().geometry(), (ArrayGeometry{16, 16}));
}

// An oversized suite is refused before any trace is generated, so it never
// reaches multi-GB allocations.
TEST(Workloads, ScaledSuiteRejectsUnaddressableGeometryUpFront) {
  const auto message = [](ArrayGeometry base, std::size_t scales) -> std::string {
    try {
      scaled_suite(base, scales);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(message({65536, 65538}, 1),
            "suite geometry 65536x65538 is too large (at most 2^32 cells, each side "
            "below 2^32)");
  // 8x8 doubled 27 times is the first geometry past 2^32 cells.
  EXPECT_EQ(message({8, 8}, 64),
            "suite geometry 131072x65536 is too large (at most 2^32 cells, each side "
            "below 2^32)");
  EXPECT_EQ(message({6, 5}, 2), "standard_suite: geometry must be even and at least 4x4");
}

}  // namespace
}  // namespace addm::seq
