// Levelization: assigns every net a combinational depth and flattens the
// netlist into a compact, cache-friendly instruction stream.
//
// Level 0 holds the evaluation sources — constants, primary inputs and
// flip-flop outputs; a combinational cell's output sits one level above the
// deepest of its inputs.  Grouping the flat ops level-major (and, within a
// level, in cell-index order) makes the encoding deterministic and gives a
// word-parallel evaluator a single linear pass with no pointer chasing:
// every op reads nets whose values are already final.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netlist/cell.hpp"
#include "netlist/netlist.hpp"

namespace addm::netlist {

/// One flat instruction: `out = type(in[0..arity))`.  Unused input slots are
/// tied to kConst0 so an evaluator may load all three unconditionally.
struct FlatOp {
  CellType type;
  NetId in[3];
  NetId out;
};

/// The levelized form of a netlist.  Pure data: building it never mutates
/// the source netlist, and equal netlists levelize identically.
struct Levelization {
  /// Combinational ops, level-major; within a level, in cell-index order.
  std::vector<FlatOp> comb;
  /// comb[level_begin[l] .. level_begin[l+1]) are the ops of level l+1
  /// (level 0 has no ops — it is the sources).  Size num_levels()+1.
  std::vector<std::size_t> level_begin;
  /// Flip-flop ops in cell-index order; `in` uses the cell.hpp pin
  /// conventions ({d}, {d,rst}, {d,en,rst}, ...), `out` is the Q net.
  std::vector<FlatOp> seq;
  /// Per-net combinational depth (sources at 0), indexed by NetId.
  std::vector<std::uint32_t> net_level;

  std::size_t num_levels() const {
    return level_begin.empty() ? 0 : level_begin.size() - 1;
  }
};

/// Levelizes `nl`.  Empty optional if the netlist has a combinational loop
/// (the same condition under which Netlist::topo_order fails).
std::optional<Levelization> levelize(const Netlist& nl);

}  // namespace addm::netlist
