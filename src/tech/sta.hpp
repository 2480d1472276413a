// Static timing analysis over a netlist + library.
//
// Arrival times propagate through the combinational network in topological
// order with the linear fanout-load model from library.hpp. Four path groups
// are reported; the paper's per-generator "delay" figures correspond to
// `critical_path_ns` (the minimum clock period the generator supports, i.e.
// what Design Compiler reports as the design's critical path).
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "tech/library.hpp"

namespace addm::tech {

/// Timing summary. All values in ns; groups with no paths report 0.
struct TimingReport {
  double critical_path_ns = 0.0;    ///< max of the four groups below
  double reg_to_reg_ns = 0.0;       ///< clk-to-Q + logic + setup
  double clk_to_output_ns = 0.0;    ///< clk-to-Q + logic to a primary output
  double input_to_reg_ns = 0.0;     ///< primary input + logic + setup
  double input_to_output_ns = 0.0;  ///< pure combinational feed-through
  /// Nets along the overall critical path, endpoint last.
  std::vector<netlist::NetId> critical_nets;
};

/// Per-type and total area.
struct AreaReport {
  double total = 0.0;
  double by_type[netlist::kNumCellTypes] = {};
  std::size_t cells = 0;

  double of(netlist::CellType t) const { return by_type[static_cast<int>(t)]; }
};

/// Runs STA. Throws std::invalid_argument on a combinational loop.
TimingReport analyze_timing(const netlist::Netlist& nl, const Library& lib);

/// Sums cell areas.
AreaReport analyze_area(const netlist::Netlist& nl, const Library& lib);

}  // namespace addm::tech
