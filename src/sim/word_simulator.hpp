// Word-parallel compiled netlist simulation: 64 independent runs per pass.
//
// WordSimulator levelizes the netlist once (netlist/levelize) into a flat
// instruction stream and holds one std::uint64_t per net, bit l carrying
// lane l's value.  One pass over the stream therefore advances 64 lanes —
// 64 independent stimulus streams over the same netlist — with the same
// two-phase cycle semantics as sim::Simulator:
//
//   ws.set("next", lane_mask);   // per-lane inputs (bit l = lane l)
//   ws.step();                   // one rising edge for all 64 lanes
//
// Lanes never interact: for every lane l and every cycle, bit l of every
// net equals the value a scalar Simulator driven with lane l's stimulus
// would compute, including toggle counts (the equivalence is enforced by
// tests/word_sim_test.cpp).  Toggle counters aggregate across lanes (one
// popcount per net per step), which is exactly the ensemble-average
// switching activity a power estimate wants.
//
// step_state() is the state-only cycle: it evaluates just the next-state
// cone (the combinational ops in the fan-in of some flip-flop pin, found
// once by a reverse sweep over the levelized stream) and clocks, leaving
// every other net stale until the next eval()/step().  Together with the
// flip-flop accessors it lets a caller fast-forward to checkpoints and then
// load a different state into each lane (core/verify's segment replay).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"

namespace addm::sim {

class WordSimulator {
 public:
  /// Number of independent simulation lanes per pass.
  static constexpr std::size_t kLanes = 64;
  /// Lane mask driving a value into every lane.
  static constexpr std::uint64_t kAllLanes = ~std::uint64_t{0};

  /// Throws std::invalid_argument if the netlist has a combinational loop.
  explicit WordSimulator(const netlist::Netlist& nl);

  const netlist::Netlist& netlist() const { return *nl_; }
  /// Combinational depth of the levelized instruction stream.
  std::size_t num_levels() const { return lev_.num_levels(); }

  // --- driving inputs --------------------------------------------------------
  /// Bit l of `lanes` drives lane l of the input net.
  void set_input(netlist::NetId net, std::uint64_t lanes);
  /// By port name; throws if the name is unknown.
  void set(std::string_view input_name, std::uint64_t lanes);
  /// Same scalar value into every lane.
  void set_all(std::string_view input_name, bool value);
  /// Drives inputs "<prefix>[0..]" with the bits of `value` (LSB first),
  /// replicated into every lane.  Throws std::invalid_argument when `value`
  /// has bits above the bus width.
  void set_bus(std::string_view prefix, std::uint64_t value);
  /// Drives one lane of a bus, leaving the other 63 lanes untouched.
  void set_bus_lane(std::string_view prefix, std::size_t lane, std::uint64_t value);

  // --- stepping ---------------------------------------------------------------
  /// Re-evaluates combinational logic from current inputs/state (all lanes).
  void eval();
  /// eval(), clock edge, eval(). Advances one cycle in every lane.  The
  /// leading eval() runs only if an input setter was called since the last
  /// eval(); otherwise the nets are already settled and it would be a no-op.
  void step();
  /// Convenience: step `n` times with current inputs held.
  void run(std::size_t n);
  /// One clock edge computed from the next-state cone only: flip-flop words
  /// advance exactly as under step(), while nets outside the cone (outputs
  /// included) stay stale until the next eval() or step().  Counts a cycle
  /// but no toggles.
  void step_state();
  /// Clears all flip-flops to 0 in every lane, restarts cycle and toggle
  /// counting, and re-evaluates (power-on state).
  void power_on_reset();

  // --- observing values ---------------------------------------------------------
  /// All 64 lanes of a net; bit l is lane l.
  std::uint64_t word(netlist::NetId net) const { return values_[net]; }
  bool value(netlist::NetId net, std::size_t lane) const {
    return (values_[net] >> lane) & 1;
  }
  /// Word of the named output; throws if the name is unknown.
  std::uint64_t get(std::string_view output_name) const;
  /// Reads outputs "<prefix>[0..width)" of one lane as an integer, LSB first.
  std::uint64_t get_bus(std::string_view prefix, std::size_t lane) const;
  /// Index of the single asserted line among outputs "<prefix>[i]" in `lane`;
  /// nullopt if zero or more than one line is asserted.
  std::optional<std::size_t> hot_index(std::string_view prefix, std::size_t lane) const;

  std::uint64_t cycles() const { return cycles_; }

  // --- flip-flop state ------------------------------------------------------------
  /// Flip-flops in cell-index order (Levelization::seq).
  std::size_t num_flipflops() const { return lev_.seq.size(); }
  /// All 64 lanes of flip-flop k's Q.
  std::uint64_t flipflop_word(std::size_t k) const { return values_[lev_.seq[k].out]; }
  /// Loads flip-flop k's Q in every lane (bit l = lane l); the combinational
  /// nets are stale until the next eval() or step().
  void set_flipflop_word(std::size_t k, std::uint64_t lanes);

  // --- activity ------------------------------------------------------------------
  /// Starts counting per-net toggles, aggregated across lanes: each step()
  /// adds popcount(changed lanes) to the net's counter, so with identical
  /// stimulus in all lanes every count is exactly 64x the scalar one, and
  /// with distinct stimuli it is the sum over the lane ensemble.
  void enable_toggle_counting();
  std::span<const std::uint64_t> toggles() const { return toggles_; }

 private:
  std::vector<netlist::NetId> collect_output_bus(std::string_view prefix) const;
  /// The only gate-evaluation switch: runs `ops` in order over all lanes.
  void eval_ops(std::span<const netlist::FlatOp> ops);
  /// Captures every flip-flop's next state from the current nets, commits.
  void clock();

  const netlist::Netlist* nl_;
  netlist::Levelization lev_;
  std::vector<netlist::FlatOp> state_cone_;  // comb ops feeding flip-flop pins
  std::vector<std::uint64_t> values_;   // per net, one lane per bit
  std::vector<std::uint64_t> prev_;     // snapshot for toggle counting
  std::vector<std::uint64_t> next_;     // flip-flop next-state scratch
  std::vector<std::uint64_t> toggles_;  // per net, summed over lanes
  std::uint64_t cycles_ = 0;
  bool count_toggles_ = false;
  bool dirty_ = true;  // nets may be stale: an input, a flip-flop or step_state()
                       // changed something since the last eval()
};

}  // namespace addm::sim
