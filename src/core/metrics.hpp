// Measurement pipeline shared by every experiment: elaborate -> repair
// fanout with buffer trees -> static timing + area. This mirrors what the
// paper's synthesis runs report (post-synthesis critical path and cell area).
#pragma once

#include "core/srag_config.hpp"
#include "netlist/netlist.hpp"
#include "seq/trace.hpp"
#include "tech/buffering.hpp"
#include "tech/library.hpp"
#include "tech/sta.hpp"

namespace addm::core {

struct GeneratorMetrics {
  double area_units = 0.0;
  double delay_ns = 0.0;        ///< critical path (the paper's "delay")
  double clk_to_out_ns = 0.0;   ///< register-to-select-line component
  double reg_to_reg_ns = 0.0;   ///< internal control-loop component
  std::size_t cells = 0;
  std::size_t flipflops = 0;
  std::size_t buffers_added = 0;
};

/// Turns an elaborated netlist into the scored netlist, in place: sweeps
/// logic no output depends on, then repairs fanout with buffer trees.  The
/// one definition shared by measure_netlist (which scores the result) and
/// front verification (which replays it).
tech::BufferingStats prepare_scored_netlist(netlist::Netlist& nl, int max_fanout);

/// prepare_scored_netlist, then STA and area analysis of the result.
GeneratorMetrics measure_netlist(netlist::Netlist& nl, const tech::Library& lib,
                                 int max_fanout = tech::kDefaultMaxFanout);

/// Maps both dimensions of `trace` and elaborates the two-hot SRAG pair.
/// Throws std::invalid_argument (with the mapper diagnostic) if either
/// dimension is unmappable.
struct Srag2dBuild {
  SragConfig row;
  SragConfig col;
  netlist::Netlist netlist;
};
Srag2dBuild build_srag_2d_for_trace(const seq::AddressTrace& trace);

}  // namespace addm::core
