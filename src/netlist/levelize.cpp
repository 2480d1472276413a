#include "netlist/levelize.hpp"

#include <algorithm>

namespace addm::netlist {

std::optional<Levelization> levelize(const Netlist& nl) {
  const auto order = nl.topo_order();
  if (!order) return std::nullopt;

  Levelization lev;
  lev.net_level.assign(nl.num_nets(), 0);

  auto flat_op = [](const Cell& c) {
    FlatOp op;
    op.type = c.type;
    for (int p = 0; p < 3; ++p)
      op.in[p] = p < static_cast<int>(c.inputs.size()) ? c.inputs[p] : kConst0;
    op.out = c.output;
    return op;
  };

  // Net levels: topo order guarantees every input of a combinational cell is
  // final when the cell is visited.  Sequential outputs stay at level 0.
  std::uint32_t max_level = 0;
  for (std::size_t ci : *order) {
    const Cell& c = nl.cell(ci);
    std::uint32_t l = 0;
    for (NetId in : c.inputs) l = std::max(l, lev.net_level[in]);
    lev.net_level[c.output] = l + 1;
    max_level = std::max(max_level, l + 1);
  }

  // Bucket combinational cells by their output level, then lay the buckets
  // out level-major.  Cell-index order within a bucket (not topo-visit
  // order, which depends on Kahn's ready-stack schedule) keeps the stream a
  // pure function of the netlist.
  std::vector<std::vector<std::size_t>> buckets(max_level);
  for (std::size_t ci : *order)
    buckets[lev.net_level[nl.cell(ci).output] - 1].push_back(ci);

  lev.comb.reserve(order->size());
  lev.level_begin.reserve(max_level + 1);
  lev.level_begin.push_back(0);
  for (std::vector<std::size_t>& bucket : buckets) {
    std::sort(bucket.begin(), bucket.end());
    for (std::size_t ci : bucket) lev.comb.push_back(flat_op(nl.cell(ci)));
    lev.level_begin.push_back(lev.comb.size());
  }

  for (std::size_t ci = 0; ci < nl.cells().size(); ++ci)
    if (is_sequential(nl.cell(ci).type)) lev.seq.push_back(flat_op(nl.cell(ci)));

  return lev;
}

}  // namespace addm::netlist
