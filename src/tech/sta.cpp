#include "tech/sta.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace addm::tech {

using netlist::Cell;
using netlist::CellType;
using netlist::Netlist;
using netlist::NetId;

namespace {
constexpr double kNoPath = -std::numeric_limits<double>::infinity();

struct Arrival {
  double from_reg = kNoPath;  // paths launched at a flip-flop Q
  double from_pi = kNoPath;   // paths launched at a primary input
  NetId pred = netlist::kInvalidNet;

  double combined() const { return std::max(from_reg, from_pi); }
};
}  // namespace

TimingReport analyze_timing(const Netlist& nl, const Library& lib) {
  const auto order = nl.topo_order();
  if (!order) throw std::invalid_argument("analyze_timing: combinational loop");
  const auto fanout = nl.fanout_counts();
  const double wire = lib.wire_delay_per_fanout;

  auto load_delay = [&](const Cell& c, NetId out) {
    const double slope =
        lib.params(c.type).slope * Library::drive_slope_factor(c.drive);
    return (slope + wire) * static_cast<double>(fanout[out]);
  };

  std::vector<Arrival> arr(nl.num_nets());
  for (NetId n : nl.inputs()) arr[n].from_pi = 0.0;
  // Launch points: flip-flop outputs.
  for (const Cell& c : nl.cells()) {
    if (!is_sequential(c.type)) continue;
    const CellParams& p = lib.params(c.type);
    arr[c.output].from_reg =
        p.clk_to_q * Library::drive_intrinsic_factor(c.drive) + load_delay(c, c.output);
  }
  // Propagate through combinational cells in dependency order.
  for (std::size_t ci : *order) {
    const Cell& c = nl.cell(ci);
    const CellParams& p = lib.params(c.type);
    Arrival& out = arr[c.output];
    for (NetId in : c.inputs) {
      const Arrival& a = arr[in];
      const double stage = p.intrinsic * Library::drive_intrinsic_factor(c.drive) +
                           load_delay(c, c.output);
      if (a.from_reg != kNoPath && a.from_reg + stage > out.from_reg) {
        out.from_reg = a.from_reg + stage;
        if (a.combined() >= out.combined() - stage) out.pred = in;
      }
      if (a.from_pi != kNoPath && a.from_pi + stage > out.from_pi) {
        out.from_pi = a.from_pi + stage;
        if (a.combined() >= out.combined() - stage) out.pred = in;
      }
    }
  }

  TimingReport r;
  NetId worst_end = netlist::kInvalidNet;
  double worst = kNoPath;
  auto consider = [&](double v, double& slot, NetId endpoint) {
    if (v == kNoPath) return;
    slot = std::max(slot, v);
    if (v > worst) {
      worst = v;
      worst_end = endpoint;
    }
  };

  // Capture points: flip-flop data/enable/reset pins.
  for (const Cell& c : nl.cells()) {
    if (!is_sequential(c.type)) continue;
    const double setup = lib.params(c.type).setup;
    for (NetId in : c.inputs) {
      if (arr[in].from_reg != kNoPath)
        consider(arr[in].from_reg + setup, r.reg_to_reg_ns, in);
      if (arr[in].from_pi != kNoPath)
        consider(arr[in].from_pi + setup, r.input_to_reg_ns, in);
    }
  }
  // Primary outputs.
  for (NetId out : nl.outputs()) {
    if (arr[out].from_reg != kNoPath) consider(arr[out].from_reg, r.clk_to_output_ns, out);
    if (arr[out].from_pi != kNoPath) consider(arr[out].from_pi, r.input_to_output_ns, out);
  }

  r.critical_path_ns = std::max({r.reg_to_reg_ns, r.clk_to_output_ns, r.input_to_reg_ns,
                                 r.input_to_output_ns, 0.0});
  // Trace the critical path back through predecessor nets.
  for (NetId n = worst_end; n != netlist::kInvalidNet;) {
    r.critical_nets.push_back(n);
    n = arr[n].pred;
    if (r.critical_nets.size() > nl.num_nets()) break;  // defensive
  }
  std::reverse(r.critical_nets.begin(), r.critical_nets.end());
  return r;
}

AreaReport analyze_area(const Netlist& nl, const Library& lib) {
  AreaReport a;
  for (const Cell& c : nl.cells()) {
    const double cell_area =
        lib.params(c.type).area * Library::drive_area_factor(c.drive);
    a.total += cell_area;
    a.by_type[static_cast<int>(c.type)] += cell_area;
    ++a.cells;
  }
  return a;
}

}  // namespace addm::tech
