#include "core/fingerprint.hpp"

#include <algorithm>

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
  h.u64(static_cast<std::uint64_t>(opt.max_fanout));
  h.u64(opt.max_fsm_states);
  h.u64(opt.include_fsm ? 1 : 0);
  // An archs subset changes which points exist, so it is hashed — in
  // canonical form (registry-order intersection, deduplicated, and a
  // filter selecting the whole registry collapses to no filter), making
  // every equal-output spelling share one key.  The no-filter form hashes
  // nothing, which keeps default-option fingerprints identical to those of
  // releases that predate the field.
  if (!opt.archs.empty()) {
    std::vector<std::string> selected;
    const std::vector<std::string> names = generator_names();
    for (const std::string& name : names) {
      if (std::find(opt.archs.begin(), opt.archs.end(), name) != opt.archs.end())
        selected.push_back(name);
    }
    if (selected.size() != names.size()) {
      h.str("archs");
      for (const std::string& name : selected) h.str(name);
    }
  }
  // verify_front annotates Pareto-point notes, so it is output-affecting —
  // but it is hashed only when enabled, so default-options fingerprints
  // (and every cache directory written before the flag existed) stay valid.
  if (opt.verify_front) h.str("verify_front");
  // The minimizer selection changes FSM/CntAG covers and therefore metrics.
  // Hashed only when non-default (same pattern as verify_front), and the
  // Auto threshold only when Auto is selected — every equal-output spelling
  // of the default (Isop ignores the threshold) shares the pinned key.
  if (opt.minimize.algo != logic::MinimizerAlgo::Isop) {
    h.str("minimizer");
    h.str(logic::minimizer_name(opt.minimize.algo));
    if (opt.minimize.algo == logic::MinimizerAlgo::Auto)
      h.u64(static_cast<std::uint64_t>(opt.minimize.heuristic_min_vars));
  }
  // Periodicity compression evaluates candidates on one period and
  // annotates notes, so it is output-affecting — hashed only when enabled
  // (verify_front pattern) to keep default-options fingerprints pinned.
  if (opt.compress_periodic) h.str("compress_periodic");
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
