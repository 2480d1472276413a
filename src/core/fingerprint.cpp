#include "core/fingerprint.hpp"

#include "core/explore_flags.hpp"
#include "netlist/cell.hpp"
#include "tech/library.hpp"

namespace addm::core {

std::uint64_t trace_fingerprint(const seq::AddressTrace& trace) {
  Fnv1a64 h;
  h.u64(trace.geometry().width);
  h.u64(trace.geometry().height);
  h.u64(trace.length());
  for (std::uint32_t a : trace.linear()) h.u64(a);
  return h.digest();
}

std::uint64_t options_fingerprint(const ExploreOptions& opt) {
  Fnv1a64 h;
  h.u64(kOptionsFingerprintSeed);
  for (const ExploreFlag& f : explore_flags()) f.hash(h, opt);
  for (int t = 0; t < static_cast<int>(netlist::kNumCellTypes); ++t) {
    const tech::CellParams& p = opt.library.params(static_cast<netlist::CellType>(t));
    h.f64(p.area);
    h.f64(p.intrinsic);
    h.f64(p.slope);
    h.f64(p.clk_to_q);
    h.f64(p.setup);
  }
  h.f64(opt.library.wire_delay_per_fanout);
  h.f64(opt.library.energy_per_area_toggle);
  return h.digest();
}

}  // namespace addm::core
