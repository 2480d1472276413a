#include "core/metrics.hpp"

#include <stdexcept>

#include "core/srag_elab.hpp"
#include "core/srag_mapper.hpp"

namespace addm::core {

tech::BufferingStats prepare_scored_netlist(netlist::Netlist& nl, int max_fanout) {
  nl.sweep_dead_cells();  // drop logic no output depends on, as synthesis does
  return tech::insert_buffers(nl, max_fanout);
}

GeneratorMetrics measure_netlist(netlist::Netlist& nl, const tech::Library& lib,
                                 int max_fanout) {
  const auto buf_stats = prepare_scored_netlist(nl, max_fanout);
  const auto timing = tech::analyze_timing(nl, lib);
  const auto area = tech::analyze_area(nl, lib);

  GeneratorMetrics m;
  m.area_units = area.total;
  m.delay_ns = timing.critical_path_ns;
  m.clk_to_out_ns = timing.clk_to_output_ns;
  m.reg_to_reg_ns = timing.reg_to_reg_ns;
  m.cells = area.cells;
  m.buffers_added = buf_stats.buffers_added;
  const auto stats = nl.stats();
  m.flipflops = stats.num_seq;
  return m;
}

Srag2dBuild build_srag_2d_for_trace(const seq::AddressTrace& trace) {
  const auto rows = trace.rows();
  const auto cols = trace.cols();
  MapResult row_map =
      map_sequence(rows, static_cast<std::uint32_t>(trace.geometry().height));
  if (!row_map.ok())
    throw std::invalid_argument("row sequence unmappable: " + to_string(*row_map.failure) +
                                " (" + row_map.detail + ")");
  MapResult col_map =
      map_sequence(cols, static_cast<std::uint32_t>(trace.geometry().width));
  if (!col_map.ok())
    throw std::invalid_argument("column sequence unmappable: " +
                                to_string(*col_map.failure) + " (" + col_map.detail + ")");

  Srag2dBuild out;
  out.row = std::move(*row_map.config);
  out.col = std::move(*col_map.config);
  out.netlist = elaborate_srag_2d(out.row, out.col);
  return out;
}

}  // namespace addm::core
