// Workload generators: the address sequences the paper evaluates plus a few
// classic image-processing patterns used by the extension experiments.
//
// All generators return linear-address traces over a row-major array; the
// mapping procedure splits them into RowAS/ColAS itself.
#pragma once

#include <optional>

#include "seq/trace.hpp"

namespace addm::seq {

/// Parameters of the block-matching motion-estimation kernel (Figure 7).
struct MotionEstimationParams {
  std::size_t img_width = 0;
  std::size_t img_height = 0;
  std::size_t mb_width = 0;   ///< macroblock width (divides img_width)
  std::size_t mb_height = 0;  ///< macroblock height (divides img_height)
  int m = 0;                  ///< search range; the paper's example uses m=0

  void check() const;  ///< throws std::invalid_argument on bad parameters
};

/// Read sequence of new_img produced by the Figure-7 loop nest. With m==0 the
/// i/j search loops degenerate to a single pass (the paper's Table 1 data);
/// with m>0 each block is re-scanned (2m)^2 times, which the SRAG absorbs in
/// its pass count.
AddressTrace motion_estimation_read(const MotionEstimationParams& p);

/// Write (production) sequence of new_img: the paper assumes incremental
/// LinAS 0,1,...,N-1 — identical to FIFO order.
AddressTrace incremental(ArrayGeometry g);
inline AddressTrace fifo(ArrayGeometry g) { return incremental(g); }

/// Separable-DCT access: each `block x block` tile (raster order over tiles)
/// is read column-by-column — the transposed pass of a separable transform
/// on a row-major array. This is our concretization of the paper's "dct"
/// sequence (see DESIGN.md).
AddressTrace dct_block_column_read(ArrayGeometry g, std::size_t block = 8);

/// Zoom-by-two source reads: producing a 2x-scaled output in raster order
/// reads source pixel (r/2, c/2) for every output pixel (r, c). The trace
/// addresses the source array of geometry `g`.
AddressTrace zoom_by_two_read(ArrayGeometry g);

/// Column-major scan (array transpose read).
AddressTrace transpose_read(ArrayGeometry g);

/// Raster scan of each `bw x bh` block, blocks in raster order (the
/// generalized Table-1 pattern).
AddressTrace block_raster(ArrayGeometry g, std::size_t bw, std::size_t bh);

/// Every `stride`-th element, wrapping until all are visited (gcd(stride,
/// size) must be 1 for full coverage; not enforced).
AddressTrace strided(ArrayGeometry g, std::size_t stride);

/// JPEG-style zigzag scan over the whole array (anti-diagonals, alternating
/// direction). Deliberately SRAG-hostile: its row/column sequences have
/// irregular run structure, so it exercises the mapper's rejection paths and
/// the explorer's fallback to CntAG.
AddressTrace zigzag(ArrayGeometry g);

/// Each address repeated `repeat` times consecutively.
AddressTrace repeat_each(const AddressTrace& t, std::size_t repeat);

/// The standard workload suite: one instance of every generator above on the
/// given geometry (motion estimation uses a macroblock tiling derived from
/// `g`; block patterns use blocks that divide the geometry). Trace names are
/// suffixed with "_<width>x<height>" so suites over several geometries can
/// be mixed in one batch without name collisions.
///
/// Requires an even width/height of at least 4 so every pattern applies;
/// throws std::invalid_argument otherwise.
std::vector<AddressTrace> standard_suite(ArrayGeometry g);

/// Number of traces standard_suite returns for every geometry.
inline constexpr std::size_t kSuiteTracesPerGeometry = 9;

/// standard_suite over `scales` doubling geometries starting at `base`
/// (base, then 2x width, then 2x height, alternating) — the batch
/// explorer's stock multi-trace workload.  Throws std::invalid_argument,
/// before generating any trace, if `base` fails standard_suite's
/// requirement or any of the geometries is not addressable().
std::vector<AddressTrace> scaled_suite(ArrayGeometry base, std::size_t scales);

/// Walks scaled_suite's geometries without generating anything and returns
/// the first one holding more than `max_cells` cells, or nullopt when all
/// fit.  Overflow-free for any base and limit.
std::optional<ArrayGeometry> oversized_suite_geometry(ArrayGeometry base,
                                                      std::size_t scales,
                                                      std::size_t max_cells);

/// Cell ceiling per geometry for the suites addm_explore --suite and the
/// serve daemon generate on request: 2^24 cells, 64 MiB of 32-bit
/// addresses per trace.  scaled_suite itself accepts up to 2^32 cells.
inline constexpr std::size_t kMaxSuiteCells = std::size_t{1} << 24;

}  // namespace addm::seq
