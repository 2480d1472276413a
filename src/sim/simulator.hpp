// Two-phase cycle-accurate netlist simulator.
//
// Usage pattern per clock cycle:
//   sim.set("next", true);      // drive primary inputs
//   sim.step();                 // one rising clock edge; outputs then reflect
//                               // the post-edge state
//
// Combinational evaluation is zero-delay in topological order; flip-flops
// update synchronously from pre-edge values. All flip-flops power up at 0 —
// designs are expected to use their reset inputs, exactly as the paper's
// circuits do.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"

namespace addm::sim {

class Simulator {
 public:
  /// Throws std::invalid_argument if the netlist has a combinational loop.
  explicit Simulator(const netlist::Netlist& nl);

  const netlist::Netlist& netlist() const { return *nl_; }

  // --- driving inputs --------------------------------------------------------
  void set_input(netlist::NetId net, bool value);
  /// By port name; throws if the name is unknown.
  void set(std::string_view input_name, bool value);
  /// Drives inputs "<prefix>[0..]" with the bits of `value` (LSB first).
  /// Throws std::invalid_argument when `value` has bits above the bus width.
  void set_bus(std::string_view prefix, std::uint64_t value);

  // --- stepping ---------------------------------------------------------------
  /// Re-evaluates combinational logic from current inputs/state.
  void eval();
  /// eval(), clock edge, eval(). Advances one cycle.
  void step();
  /// Convenience: step `n` times with current inputs held.
  void run(std::size_t n);
  /// Clears all flip-flops to 0, restarts cycle and toggle counting, and
  /// re-evaluates (power-on state).
  void power_on_reset();

  // --- observing values ---------------------------------------------------------
  bool value(netlist::NetId net) const { return values_[net] != 0; }
  bool get(std::string_view output_name) const;
  /// Reads outputs "<prefix>[0..width)" as an integer, LSB first.
  std::uint64_t get_bus(std::string_view prefix) const;
  /// Index of the single asserted line among outputs "<prefix>[i]".
  /// nullopt if zero or more than one line is asserted (two-hot violation).
  std::optional<std::size_t> hot_index(std::string_view prefix) const;
  /// Number of asserted lines among outputs "<prefix>[i]".
  std::size_t hot_count(std::string_view prefix) const;

  std::uint64_t cycles() const { return cycles_; }

  // --- activity ------------------------------------------------------------------
  /// Starts counting per-net toggles (one count per net per step() where the
  /// settled value changed).
  void enable_toggle_counting();
  std::span<const std::uint64_t> toggles() const { return toggles_; }

 private:
  netlist::NetId find_output_checked(std::string_view name) const;
  std::vector<netlist::NetId> collect_bus(std::string_view prefix) const;

  const netlist::Netlist* nl_;
  std::vector<std::size_t> topo_;
  std::vector<std::uint8_t> values_;    // per net
  std::vector<std::uint8_t> prev_;      // snapshot for toggle counting
  std::vector<std::uint64_t> toggles_;  // per net, empty unless enabled
  std::vector<std::size_t> seq_cells_;  // indices of flip-flop cells
  std::uint64_t cycles_ = 0;
  bool count_toggles_ = false;
};

}  // namespace addm::sim
