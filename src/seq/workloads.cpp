#include "seq/workloads.hpp"
#include <algorithm>

#include <iterator>
#include <numeric>
#include <stdexcept>

namespace addm::seq {

namespace {
std::uint32_t lin(const ArrayGeometry& g, std::size_t row, std::size_t col) {
  return static_cast<std::uint32_t>(row * g.width + col);
}

void require_suite_geometry(ArrayGeometry g) {
  if (g.width < 4 || g.height < 4 || g.width % 2 != 0 || g.height % 2 != 0)
    throw std::invalid_argument(
        "standard_suite: geometry must be even and at least 4x4");
}
}  // namespace

void MotionEstimationParams::check() const {
  if (img_width == 0 || img_height == 0 || mb_width == 0 || mb_height == 0)
    throw std::invalid_argument("MotionEstimationParams: zero dimension");
  if (img_width % mb_width != 0 || img_height % mb_height != 0)
    throw std::invalid_argument("MotionEstimationParams: macroblock must tile the image");
  if (m < 0) throw std::invalid_argument("MotionEstimationParams: negative search range");
}

AddressTrace motion_estimation_read(const MotionEstimationParams& p) {
  p.check();
  const ArrayGeometry g{p.img_width, p.img_height};
  // With m==0 the search loops of Figure 7 run zero times syntactically, but
  // the paper's Table 1 corresponds to a single residual pass (i=j=0).
  const std::size_t search_iters = p.m == 0 ? 1 : 4 * static_cast<std::size_t>(p.m) *
                                                      static_cast<std::size_t>(p.m);
  std::vector<std::uint32_t> a;
  a.reserve(g.size() * search_iters);
  for (std::size_t gg = 0; gg < p.img_height / p.mb_height; ++gg)
    for (std::size_t hh = 0; hh < p.img_width / p.mb_width; ++hh)
      for (std::size_t it = 0; it < search_iters; ++it)
        for (std::size_t k = 0; k < p.mb_height; ++k)
          for (std::size_t l = 0; l < p.mb_width; ++l)
            a.push_back(lin(g, gg * p.mb_height + k, hh * p.mb_width + l));
  return AddressTrace(g, std::move(a), "motion_est");
}

AddressTrace incremental(ArrayGeometry g) {
  std::vector<std::uint32_t> a(g.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<std::uint32_t>(i);
  return AddressTrace(g, std::move(a), "incremental");
}

AddressTrace dct_block_column_read(ArrayGeometry g, std::size_t block) {
  if (block == 0 || g.width % block != 0 || g.height % block != 0)
    throw std::invalid_argument("dct_block_column_read: block must tile the array");
  std::vector<std::uint32_t> a;
  a.reserve(g.size());
  for (std::size_t bg = 0; bg < g.height / block; ++bg)
    for (std::size_t bh = 0; bh < g.width / block; ++bh)
      for (std::size_t c = 0; c < block; ++c)
        for (std::size_t r = 0; r < block; ++r)
          a.push_back(lin(g, bg * block + r, bh * block + c));
  return AddressTrace(g, std::move(a), "dct");
}

AddressTrace zoom_by_two_read(ArrayGeometry g) {
  std::vector<std::uint32_t> a;
  a.reserve(4 * g.size());
  for (std::size_t r = 0; r < 2 * g.height; ++r)
    for (std::size_t c = 0; c < 2 * g.width; ++c) a.push_back(lin(g, r / 2, c / 2));
  return AddressTrace(g, std::move(a), "zoombytwo");
}

AddressTrace transpose_read(ArrayGeometry g) {
  std::vector<std::uint32_t> a;
  a.reserve(g.size());
  for (std::size_t c = 0; c < g.width; ++c)
    for (std::size_t r = 0; r < g.height; ++r) a.push_back(lin(g, r, c));
  return AddressTrace(g, std::move(a), "transpose");
}

AddressTrace block_raster(ArrayGeometry g, std::size_t bw, std::size_t bh) {
  if (bw == 0 || bh == 0 || g.width % bw != 0 || g.height % bh != 0)
    throw std::invalid_argument("block_raster: block must tile the array");
  std::vector<std::uint32_t> a;
  a.reserve(g.size());
  for (std::size_t bg = 0; bg < g.height / bh; ++bg)
    for (std::size_t bb = 0; bb < g.width / bw; ++bb)
      for (std::size_t r = 0; r < bh; ++r)
        for (std::size_t c = 0; c < bw; ++c)
          a.push_back(lin(g, bg * bh + r, bb * bw + c));
  return AddressTrace(g, std::move(a), "block_raster");
}

AddressTrace strided(ArrayGeometry g, std::size_t stride) {
  if (stride == 0) throw std::invalid_argument("strided: zero stride");
  std::vector<std::uint32_t> a;
  a.reserve(g.size());
  std::size_t pos = 0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    a.push_back(static_cast<std::uint32_t>(pos));
    pos = (pos + stride) % g.size();
  }
  return AddressTrace(g, std::move(a), "strided");
}

AddressTrace zigzag(ArrayGeometry g) {
  std::vector<std::uint32_t> a;
  a.reserve(g.size());
  const long h = static_cast<long>(g.height), w = static_cast<long>(g.width);
  for (long d = 0; d < h + w - 1; ++d) {
    // Anti-diagonal d covers cells with row+col == d; direction alternates.
    std::vector<std::uint32_t> diag;
    for (long r = std::max(0L, d - w + 1); r <= std::min(d, h - 1); ++r)
      diag.push_back(lin(g, static_cast<std::size_t>(r), static_cast<std::size_t>(d - r)));
    if (d % 2 == 0) std::reverse(diag.begin(), diag.end());  // upward on even
    a.insert(a.end(), diag.begin(), diag.end());
  }
  return AddressTrace(g, std::move(a), "zigzag");
}

AddressTrace repeat_each(const AddressTrace& t, std::size_t repeat) {
  if (repeat == 0) throw std::invalid_argument("repeat_each: zero repeat");
  std::vector<std::uint32_t> a;
  a.reserve(t.length() * repeat);
  for (std::uint32_t x : t.linear())
    for (std::size_t r = 0; r < repeat; ++r) a.push_back(x);
  return AddressTrace(t.geometry(), std::move(a), t.name() + "_x" + std::to_string(repeat));
}

std::vector<AddressTrace> standard_suite(ArrayGeometry g) {
  require_suite_geometry(g);
  const std::string suffix =
      "_" + std::to_string(g.width) + "x" + std::to_string(g.height);

  std::vector<AddressTrace> suite;
  MotionEstimationParams me;
  me.img_width = g.width;
  me.img_height = g.height;
  me.mb_width = g.width / 2;
  me.mb_height = g.height / 2;
  me.m = 0;
  suite.push_back(motion_estimation_read(me));
  suite.push_back(incremental(g));
  // Largest power-of-two block that tiles both dimensions, capped at 8 (the
  // JPEG/DCT block size the paper's workloads assume).
  std::size_t block = 1;
  while (block < 8 && g.width % (2 * block) == 0 && g.height % (2 * block) == 0)
    block *= 2;
  suite.push_back(dct_block_column_read(g, block));
  suite.push_back(zoom_by_two_read(g));
  suite.push_back(transpose_read(g));
  suite.push_back(block_raster(g, g.width / 2, g.height / 2));
  // Smallest stride > width that is coprime with the array size, so the
  // strided pattern visits every address exactly once.
  std::size_t stride = g.width + 1;
  while (std::gcd(stride, g.size()) != 1) ++stride;
  suite.push_back(strided(g, stride));
  suite.push_back(zigzag(g));
  suite.push_back(repeat_each(incremental(g), 2));

  for (AddressTrace& t : suite) t.set_name(t.name() + suffix);
  return suite;
}

std::vector<AddressTrace> scaled_suite(ArrayGeometry base, std::size_t scales) {
  // Every geometry is checked before any trace is generated, so an oversized
  // request fails fast instead of attempting multi-GB allocations.  For an
  // even base of at least 4x4, at most 2^32 cells is exactly addressable().
  require_suite_geometry(base);
  if (const auto g = oversized_suite_geometry(base, scales, std::size_t{1} << 32))
    throw std::invalid_argument("suite geometry " + std::to_string(g->width) + "x" +
                                std::to_string(g->height) +
                                " is too large (at most 2^32 cells, each side below 2^32)");
  std::vector<AddressTrace> all;
  for (std::size_t i = 0; i < scales; ++i) {
    auto suite = standard_suite(base);
    std::move(suite.begin(), suite.end(), std::back_inserter(all));
    (i % 2 == 0 ? base.width : base.height) *= 2;
  }
  return all;
}

std::optional<ArrayGeometry> oversized_suite_geometry(ArrayGeometry base,
                                                      std::size_t scales,
                                                      std::size_t max_cells) {
  // Doubling, width first.  A zero side stays zero cells at every scale.
  // Dividing instead of multiplying keeps the test overflow-free, and sides
  // stay at most max_cells until the walk stops.
  if (base.width == 0 || base.height == 0) return std::nullopt;
  for (std::size_t i = 0; i < scales; ++i) {
    if (base.width > max_cells / base.height) return base;
    (i % 2 == 0 ? base.width : base.height) *= 2;
  }
  return std::nullopt;
}

}  // namespace addm::seq
