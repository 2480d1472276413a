// Netlist: a flat gate-level circuit over the cell set in cell.hpp.
//
// A Netlist owns nets and cell instances. Nets are dense integer ids; nets 0
// and 1 are the constant-0/1 nets. Primary inputs and outputs carry names so
// code generators and testbenches can address them symbolically. All
// flip-flops are clocked by one implicit global clock.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/cell.hpp"

namespace addm::netlist {

/// One cell instance. `inputs.size()` always equals traits(type).num_inputs.
struct Cell {
  CellType type;
  std::vector<NetId> inputs;
  NetId output = kInvalidNet;
  /// Drive strength (X1/X2/X4). Functionally irrelevant; the technology
  /// layer scales area up and output load sensitivity down with it.
  std::uint8_t drive = 1;
};

/// Per-cell-type instance counts plus totals; produced by Netlist::stats().
struct NetlistStats {
  std::size_t count[kNumCellTypes] = {};
  std::size_t num_cells = 0;
  std::size_t num_seq = 0;
  std::size_t num_comb = 0;
  std::size_t num_nets = 0;

  std::size_t of(CellType t) const { return count[static_cast<int>(t)]; }
};

/// Problems detected by Netlist::validate().
struct ValidationIssue {
  enum class Kind {
    UndrivenNet,        ///< a cell input or PO reads a net nothing drives
    MultipleDrivers,    ///< two drivers (cells/PIs) on one net
    CombinationalLoop,  ///< cycle through combinational cells
    BadArity,           ///< cell input count does not match its type
    ConstantDriven,     ///< a cell drives the constant-0/1 net
  };
  Kind kind;
  std::string detail;
};

class Netlist {
 public:
  Netlist();

  // --- construction (normally via NetlistBuilder) -------------------------
  NetId new_net();
  /// Creates a named primary input and returns its net.
  NetId add_input(std::string name);
  /// Marks an existing, undriven net as a named primary input (used by the
  /// netlist reader, which pre-creates all nets).
  void bind_input(std::string name, NetId net);
  /// Marks an existing net as a named primary output.
  void add_output(std::string name, NetId net);
  /// Adds a cell; inputs must match the arity of `type`. Returns cell index.
  std::size_t add_cell(CellType type, std::vector<NetId> inputs, NetId output);

  /// Rewires one input pin of an existing cell (used by netlist transforms
  /// such as buffer-tree insertion).
  void set_cell_input(std::size_t cell, int pin, NetId net);
  /// Sets a cell's drive strength; must be 1, 2 or 4.
  void set_cell_drive(std::size_t cell, int drive);
  /// Re-binds a primary output to a different net.
  void set_output_net(std::size_t index, NetId net);

  // --- access --------------------------------------------------------------
  std::size_t num_nets() const { return num_nets_; }
  std::span<const Cell> cells() const { return cells_; }
  const Cell& cell(std::size_t i) const { return cells_[i]; }

  std::span<const NetId> inputs() const { return input_nets_; }
  std::span<const NetId> outputs() const { return output_nets_; }
  const std::string& input_name(std::size_t i) const { return input_names_[i]; }
  const std::string& output_name(std::size_t i) const { return output_names_[i]; }
  /// Net of the primary input/output with the given name, if any.
  std::optional<NetId> find_input(std::string_view name) const;
  std::optional<NetId> find_output(std::string_view name) const;
  /// Nets of outputs "<prefix>[0]", "<prefix>[1]", ... up to the first
  /// missing index, built in one pass over the outputs.  Where two outputs
  /// share a name the first wins, as in find_output; empty if there is no
  /// "<prefix>[0]".
  std::vector<NetId> output_bus(std::string_view prefix) const;

  /// Index of the cell driving `net`, if a cell drives it.
  std::optional<std::size_t> driver_of(NetId net) const;
  bool is_primary_input(NetId net) const;

  // --- analysis -------------------------------------------------------------
  NetlistStats stats() const;

  /// Number of cell-input pins plus primary-output bindings reading each net.
  std::vector<std::uint32_t> fanout_counts() const;

  /// Indices of combinational cells in dependency order (inputs before
  /// users). Sequential cell outputs and PIs are sources. Empty optional if a
  /// combinational loop exists.
  std::optional<std::vector<std::size_t>> topo_order() const;

  /// Full structural check; empty result means the netlist is well-formed.
  std::vector<ValidationIssue> validate() const;

  /// Removes cells whose outputs cannot reach any primary output (directly
  /// or through other cells). Returns the number of cells removed. Net ids
  /// are preserved (removed cells simply leave their output nets undriven
  /// and unread). Mirrors the dead-logic sweep of a synthesis flow.
  std::size_t sweep_dead_cells();

 private:
  std::size_t num_nets_ = 0;
  std::vector<Cell> cells_;
  std::vector<NetId> driver_;  // per net: cell index + 2, 1 for PI, 0 for none
  std::vector<NetId> input_nets_;
  std::vector<std::string> input_names_;
  std::vector<NetId> output_nets_;
  std::vector<std::string> output_names_;
};

}  // namespace addm::netlist
