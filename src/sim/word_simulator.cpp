#include "sim/word_simulator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace addm::sim {

using netlist::CellType;
using netlist::FlatOp;
using netlist::NetId;
using netlist::Netlist;

WordSimulator::WordSimulator(const Netlist& nl) : nl_(&nl) {
  auto lev = netlist::levelize(nl);
  if (!lev) throw std::invalid_argument("WordSimulator: combinational loop");
  lev_ = std::move(*lev);
  values_.assign(nl.num_nets(), 0);
  values_[netlist::kConst1] = kAllLanes;
  next_.resize(lev_.seq.size());

  // Next-state cone: walk the level-major stream backwards, keeping an op
  // when its output feeds a flip-flop pin or an op already kept.  Unused pin
  // slots name kConst0, which no op drives, so marking them is harmless.
  std::vector<bool> needed(nl.num_nets(), false);
  for (const FlatOp& ff : lev_.seq)
    for (NetId in : ff.in) needed[in] = true;
  for (auto it = lev_.comb.rbegin(); it != lev_.comb.rend(); ++it) {
    if (!needed[it->out]) continue;
    state_cone_.push_back(*it);
    for (NetId in : it->in) needed[in] = true;
  }
  std::reverse(state_cone_.begin(), state_cone_.end());
  eval();
}

void WordSimulator::set_input(NetId net, std::uint64_t lanes) {
  if (!nl_->is_primary_input(net))
    throw std::invalid_argument("set_input: net is not a primary input");
  values_[net] = lanes;
  dirty_ = true;
}

void WordSimulator::set(std::string_view name, std::uint64_t lanes) {
  const auto net = nl_->find_input(name);
  if (!net) throw std::invalid_argument("set: unknown input " + std::string(name));
  values_[*net] = lanes;
  dirty_ = true;
}

void WordSimulator::set_all(std::string_view name, bool value) {
  set(name, value ? kAllLanes : 0);
}

namespace {

/// Collects the input nets of "<prefix>[0..width)" and validates `value`
/// against the width BEFORE the caller mutates anything, so a rejected
/// set_bus/set_bus_lane leaves the bus untouched.
std::vector<NetId> checked_bus_nets(const netlist::Netlist& nl,
                                    std::string_view prefix, std::uint64_t value,
                                    const char* who) {
  std::vector<NetId> nets;
  for (int i = 0;; ++i) {
    const auto net = nl.find_input(std::string(prefix) + "[" + std::to_string(i) + "]");
    if (!net) break;
    nets.push_back(*net);
  }
  if (nets.empty())
    throw std::invalid_argument(std::string(who) + ": unknown bus " +
                                std::string(prefix));
  if (nets.size() < 64 && (value >> nets.size()) != 0)
    throw std::invalid_argument(std::string(who) + ": value does not fit the " +
                                std::to_string(nets.size()) + "-bit bus " +
                                std::string(prefix));
  return nets;
}

}  // namespace

void WordSimulator::set_bus(std::string_view prefix, std::uint64_t value) {
  const auto nets = checked_bus_nets(*nl_, prefix, value, "set_bus");
  for (std::size_t i = 0; i < nets.size(); ++i)
    values_[nets[i]] = (value >> i) & 1 ? kAllLanes : 0;
  dirty_ = true;
}

void WordSimulator::set_bus_lane(std::string_view prefix, std::size_t lane,
                                 std::uint64_t value) {
  if (lane >= kLanes) throw std::invalid_argument("set_bus_lane: lane out of range");
  const auto nets = checked_bus_nets(*nl_, prefix, value, "set_bus_lane");
  const std::uint64_t mask = std::uint64_t{1} << lane;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if ((value >> i) & 1)
      values_[nets[i]] |= mask;
    else
      values_[nets[i]] &= ~mask;
  }
  dirty_ = true;
}

void WordSimulator::set_flipflop_word(std::size_t k, std::uint64_t lanes) {
  values_[lev_.seq[k].out] = lanes;
  dirty_ = true;
}

void WordSimulator::eval_ops(std::span<const FlatOp> ops) {
  // One linear pass over a level-major stream: every op's inputs are final
  // before it runs, and each bitwise expression advances all 64 lanes.
  for (const FlatOp& op : ops) {
    const std::uint64_t a = values_[op.in[0]];
    const std::uint64_t b = values_[op.in[1]];
    std::uint64_t v = 0;
    switch (op.type) {
      case CellType::Inv:   v = ~a; break;
      case CellType::Buf:   v = a; break;
      case CellType::Nand2: v = ~(a & b); break;
      case CellType::Nor2:  v = ~(a | b); break;
      case CellType::And2:  v = a & b; break;
      case CellType::Or2:   v = a | b; break;
      case CellType::Xor2:  v = a ^ b; break;
      case CellType::Xnor2: v = ~(a ^ b); break;
      case CellType::Mux2:  v = (a & values_[op.in[2]]) | (~a & b); break;
      default: continue;
    }
    values_[op.out] = v;
  }
}

void WordSimulator::eval() {
  eval_ops(lev_.comb);
  dirty_ = false;
}

void WordSimulator::clock() {
  // Capture next states from pre-edge values, then commit — lane-parallel
  // mirrors of the scalar flip-flop semantics (reset/set dominant, enable
  // holds Q).
  for (std::size_t k = 0; k < lev_.seq.size(); ++k) {
    const FlatOp& op = lev_.seq[k];
    const std::uint64_t d = values_[op.in[0]];
    const std::uint64_t q = values_[op.out];
    std::uint64_t v = q;
    switch (op.type) {
      case CellType::Dff:   v = d; break;
      case CellType::DffR:  v = d & ~values_[op.in[1]]; break;
      case CellType::DffS:  v = d | values_[op.in[1]]; break;
      case CellType::DffE: {
        const std::uint64_t en = values_[op.in[1]];
        v = (en & d) | (~en & q);
        break;
      }
      case CellType::DffER: {
        const std::uint64_t en = values_[op.in[1]];
        v = ~values_[op.in[2]] & ((en & d) | (~en & q));
        break;
      }
      case CellType::DffES: {
        const std::uint64_t en = values_[op.in[1]];
        v = values_[op.in[2]] | (en & d) | (~en & q);
        break;
      }
      default: break;
    }
    next_[k] = v;
  }
  for (std::size_t k = 0; k < lev_.seq.size(); ++k)
    values_[lev_.seq[k].out] = next_[k];
}

void WordSimulator::step() {
  // The previous step's trailing eval() already settled every net, so the
  // leading pass is needed only after something changed.
  if (dirty_) eval();
  if (count_toggles_) prev_ = values_;
  clock();
  eval();
  ++cycles_;

  if (count_toggles_) {
    for (NetId n = 0; n < values_.size(); ++n)
      toggles_[n] += std::popcount(values_[n] ^ prev_[n]);
  }
}

void WordSimulator::step_state() {
  // Settled nets already hold the cone's values; otherwise refresh the cone.
  if (dirty_) eval_ops(state_cone_);
  clock();
  ++cycles_;
  dirty_ = true;
}

void WordSimulator::run(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) step();
}

void WordSimulator::power_on_reset() {
  for (const FlatOp& op : lev_.seq) values_[op.out] = 0;
  cycles_ = 0;
  eval();
  if (count_toggles_) {
    prev_ = values_;
    toggles_.assign(nl_->num_nets(), 0);
  }
}

std::uint64_t WordSimulator::get(std::string_view name) const {
  const auto net = nl_->find_output(name);
  if (!net) throw std::invalid_argument("unknown output " + std::string(name));
  return values_[*net];
}

std::vector<NetId> WordSimulator::collect_output_bus(std::string_view prefix) const {
  auto nets = nl_->output_bus(prefix);
  if (nets.empty())
    throw std::invalid_argument("unknown output bus " + std::string(prefix));
  return nets;
}

std::uint64_t WordSimulator::get_bus(std::string_view prefix, std::size_t lane) const {
  const auto nets = collect_output_bus(prefix);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < nets.size(); ++i)
    v |= static_cast<std::uint64_t>(value(nets[i], lane)) << i;
  return v;
}

std::optional<std::size_t> WordSimulator::hot_index(std::string_view prefix,
                                                    std::size_t lane) const {
  const auto nets = collect_output_bus(prefix);
  std::optional<std::size_t> hot;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if (!value(nets[i], lane)) continue;
    if (hot) return std::nullopt;  // more than one line asserted
    hot = i;
  }
  return hot;
}

void WordSimulator::enable_toggle_counting() {
  count_toggles_ = true;
  toggles_.assign(nl_->num_nets(), 0);
}

}  // namespace addm::sim
