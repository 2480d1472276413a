#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "bench.hpp"
#include "core/fingerprint.hpp"
#include "seq/trace_io.hpp"
#include "seq/workloads.hpp"

namespace pipebench {

using addm::seq::AddressTrace;
using addm::seq::ArrayGeometry;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double tail_quantile(std::vector<double> v) {
  const double n = static_cast<double>(v.size());
  const double q = std::clamp((n - 10) / n, 0.5, 0.99);
  return quantile(std::move(v), q);
}

std::uint64_t hash_bytes(const std::string& s) {
  addm::core::Fnv1a64 h;
  h.bytes(s.data(), s.size());
  return h.digest();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

/// Powers of two in [lo, hi].
std::vector<std::size_t> pow2_between(std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> v;
  for (std::size_t p = 1; p <= hi; p *= 2)
    if (p >= lo) v.push_back(p);
  return v;
}

std::size_t pick(const std::vector<std::size_t>& v, Rng& rng) {
  return v[rng.below(v.size())];
}

std::string geometry_tag(ArrayGeometry g) {
  return std::to_string(g.width) + "x" + std::to_string(g.height);
}

}  // namespace

AddressTrace family_trace(ArrayGeometry g, Family family, Rng& rng) {
  using namespace addm::seq;
  const std::size_t small = std::min(g.width, g.height);
  switch (family) {
    case Family::kTranspose:
      return transpose_read(g);
    case Family::kDct:
      return dct_block_column_read(g, pick(pow2_between(2, std::min<std::size_t>(8, small / 2)), rng));
    case Family::kBlock: {
      // Block raster with blocks narrower than a row (a full-width block of
      // one row would be the incremental scan); motion estimation with m = 0
      // walks the same shape, so the seed picks either spelling.
      const std::size_t bw = pick(pow2_between(2, g.width / 2), rng);
      const std::size_t bh = pick(pow2_between(2, g.height), rng);
      if (rng.below(2) == 0) return block_raster(g, bw, bh);
      MotionEstimationParams me;
      me.img_width = g.width;
      me.img_height = g.height;
      me.mb_width = bw;
      me.mb_height = bh;
      return motion_estimation_read(me);
    }
    case Family::kZigzag:
      return zigzag(g);
    case Family::kIncremental:
      break;
  }
  return incremental(g);
}

std::vector<AddressTrace> seeded_suite(const std::vector<ArrayGeometry>& geoms,
                                       const std::vector<Slot>& slots, std::uint64_t seed) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + 17);
  std::vector<AddressTrace> out;
  std::set<std::uint64_t> seen;
  for (const ArrayGeometry& g : geoms) {
    for (std::size_t slot = 0; slot < slots.size(); ++slot) {
      const Slot& spec = slots[slot];
      for (int attempt = 0;; ++attempt) {
        if (attempt == 200)
          throw std::runtime_error("seeded_suite: no distinct trace for " + geometry_tag(g));
        AddressTrace t =
            family_trace(g, spec.families[rng.below(spec.families.size())], rng);
        if (spec.doubled) t = addm::seq::repeat_each(t, 2);
        if (!seen.insert(addm::core::trace_fingerprint(t)).second) continue;
        t.set_name(t.name() + "_" + geometry_tag(g) + "_s" + std::to_string(slot));
        out.push_back(std::move(t));
        break;
      }
    }
  }
  return out;
}

AddressTrace novel_trace(std::uint64_t seed, std::uint64_t index) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull ^ (index + 1) * 0xd1b54a32d192ed03ull);
  std::vector<std::uint32_t> a(64);
  for (auto& x : a) x = static_cast<std::uint32_t>(rng.below(64));
  return AddressTrace({8, 8}, std::move(a), "novel" + std::to_string(index));
}

std::vector<std::string> write_traces(const fs::path& dir,
                                      const std::vector<AddressTrace>& traces) {
  fs::create_directories(dir);
  std::vector<std::string> paths;
  for (const AddressTrace& t : traces) {
    paths.push_back((dir / (t.name() + ".trace")).string());
    addm::seq::write_trace_file(paths.back(), t);
  }
  return paths;
}

std::string entry_problem(const addm::core::BatchEntry& e, bool verify,
                          const std::string& periodic_tag) {
  if (!e.error.empty()) return e.name + ": exploration error: " + e.error;
  if (verify)
    for (std::size_t i : e.pareto)
      if (e.points[i].note.find("[verified") == std::string::npos)
        return e.name + ": Pareto point " + e.points[i].architecture +
               " not verified: " + e.points[i].note;
  if (!periodic_tag.empty())
    for (const auto& p : e.points)
      if (p.note.find(periodic_tag) == std::string::npos)
        return e.name + ": " + p.architecture + " note lacks " + periodic_tag;
  return {};
}

void check_fingerprint_pin(Outcome& out) {
  const std::string fp = addm::core::hex64(addm::core::options_fingerprint({}));
  out.check(fp == "80f73374c170bfac", "default options fingerprint is " + fp);
}

void report_end_to_end(const EndToEnd& e, Outcome& out) {
  const double med = median(e.op_seconds);
  const double ops = static_cast<double>(e.op_seconds.size());
  const double per_s = e.rate_from_median ? 1.0 / med : ops / e.window_s;
  out.metric("setup_s", e.setup_s, "s");
  out.metric("traces_per_s", e.traces_per_op * per_s, "traces/s");
  out.metric("maccesses_per_s", e.accesses_per_op * per_s / 1e6, "Maccesses/s");
  out.metric("latency_ms_p50", med * 1e3, "ms");
  out.metric("latency_ms_p99", tail_quantile(e.op_seconds) * 1e3, "ms");
  out.metric("requests_per_s", per_s, "req/s");
  out.metric("peak_rss_mb", e.peak_rss_mb, "MB");
}

}  // namespace pipebench
