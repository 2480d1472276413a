#include "sim/simulator.hpp"

#include <stdexcept>
#include <string>

namespace addm::sim {

using netlist::Cell;
using netlist::CellType;
using netlist::Netlist;
using netlist::NetId;

Simulator::Simulator(const Netlist& nl) : nl_(&nl) {
  auto order = nl.topo_order();
  if (!order) throw std::invalid_argument("Simulator: combinational loop");
  topo_ = std::move(*order);
  values_.assign(nl.num_nets(), 0);
  values_[netlist::kConst1] = 1;
  for (std::size_t i = 0; i < nl.cells().size(); ++i)
    if (is_sequential(nl.cell(i).type)) seq_cells_.push_back(i);
  eval();
}

void Simulator::set_input(NetId net, bool value) {
  if (!nl_->is_primary_input(net))
    throw std::invalid_argument("set_input: net is not a primary input");
  values_[net] = value ? 1 : 0;
}

void Simulator::set(std::string_view name, bool value) {
  const auto net = nl_->find_input(name);
  if (!net) throw std::invalid_argument("set: unknown input " + std::string(name));
  values_[*net] = value ? 1 : 0;
}

void Simulator::set_bus(std::string_view prefix, std::uint64_t value) {
  std::vector<NetId> nets;
  for (int i = 0;; ++i) {
    const auto net =
        nl_->find_input(std::string(prefix) + "[" + std::to_string(i) + "]");
    if (!net) break;
    nets.push_back(*net);
  }
  if (nets.empty())
    throw std::invalid_argument("set_bus: unknown bus " + std::string(prefix));
  // A value wider than the bus would silently lose its high bits (e.g. a
  // 10-bit address written onto an 8-bit bus); refuse — before touching any
  // bit, so a rejected call leaves the bus unchanged.
  if (nets.size() < 64 && (value >> nets.size()) != 0)
    throw std::invalid_argument("set_bus: value does not fit the " +
                                std::to_string(nets.size()) + "-bit bus " +
                                std::string(prefix));
  for (std::size_t i = 0; i < nets.size(); ++i)
    values_[nets[i]] = (value >> i) & 1;
}

void Simulator::eval() {
  for (std::size_t ci : topo_) {
    const Cell& c = nl_->cell(ci);
    const auto& in = c.inputs;
    std::uint8_t v = 0;
    switch (c.type) {
      case CellType::Inv:   v = values_[in[0]] ^ 1; break;
      case CellType::Buf:   v = values_[in[0]]; break;
      case CellType::Nand2: v = (values_[in[0]] & values_[in[1]]) ^ 1; break;
      case CellType::Nor2:  v = (values_[in[0]] | values_[in[1]]) ^ 1; break;
      case CellType::And2:  v = values_[in[0]] & values_[in[1]]; break;
      case CellType::Or2:   v = values_[in[0]] | values_[in[1]]; break;
      case CellType::Xor2:  v = values_[in[0]] ^ values_[in[1]]; break;
      case CellType::Xnor2: v = (values_[in[0]] ^ values_[in[1]]) ^ 1; break;
      case CellType::Mux2:  v = values_[in[0]] ? values_[in[2]] : values_[in[1]]; break;
      default: continue;  // sequential cells keep their Q value
    }
    values_[c.output] = v;
  }
}

void Simulator::step() {
  eval();
  if (count_toggles_) prev_ = values_;

  // Capture next states from pre-edge values, then commit.
  std::vector<std::uint8_t> next(seq_cells_.size());
  for (std::size_t k = 0; k < seq_cells_.size(); ++k) {
    const Cell& c = nl_->cell(seq_cells_[k]);
    const auto& in = c.inputs;
    const std::uint8_t q = values_[c.output];
    std::uint8_t v = q;
    switch (c.type) {
      case CellType::Dff:   v = values_[in[0]]; break;
      case CellType::DffR:  v = values_[in[1]] ? 0 : values_[in[0]]; break;
      case CellType::DffS:  v = values_[in[1]] ? 1 : values_[in[0]]; break;
      case CellType::DffE:  v = values_[in[1]] ? values_[in[0]] : q; break;
      case CellType::DffER: v = values_[in[2]] ? 0 : (values_[in[1]] ? values_[in[0]] : q); break;
      case CellType::DffES: v = values_[in[2]] ? 1 : (values_[in[1]] ? values_[in[0]] : q); break;
      default: break;
    }
    next[k] = v;
  }
  for (std::size_t k = 0; k < seq_cells_.size(); ++k)
    values_[nl_->cell(seq_cells_[k]).output] = next[k];
  eval();
  ++cycles_;

  if (count_toggles_) {
    for (NetId n = 0; n < values_.size(); ++n)
      if (values_[n] != prev_[n]) ++toggles_[n];
  }
}

void Simulator::run(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) step();
}

void Simulator::power_on_reset() {
  for (std::size_t ci : seq_cells_) values_[nl_->cell(ci).output] = 0;
  cycles_ = 0;
  eval();
  // Power-on starts a fresh measurement window: carrying toggle counts (or
  // the pre-reset value snapshot) across the reset would leak activity from
  // the previous run into the first post-reset steps.
  if (count_toggles_) {
    prev_ = values_;
    toggles_.assign(nl_->num_nets(), 0);
  }
}

NetId Simulator::find_output_checked(std::string_view name) const {
  const auto net = nl_->find_output(name);
  if (!net) throw std::invalid_argument("unknown output " + std::string(name));
  return *net;
}

bool Simulator::get(std::string_view name) const {
  return values_[find_output_checked(name)] != 0;
}

std::vector<NetId> Simulator::collect_bus(std::string_view prefix) const {
  auto nets = nl_->output_bus(prefix);
  if (nets.empty())
    throw std::invalid_argument("unknown output bus " + std::string(prefix));
  return nets;
}

std::uint64_t Simulator::get_bus(std::string_view prefix) const {
  const auto nets = collect_bus(prefix);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < nets.size(); ++i)
    v |= static_cast<std::uint64_t>(values_[nets[i]]) << i;
  return v;
}

std::optional<std::size_t> Simulator::hot_index(std::string_view prefix) const {
  const auto nets = collect_bus(prefix);
  std::optional<std::size_t> hot;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if (!values_[nets[i]]) continue;
    if (hot) return std::nullopt;  // more than one line asserted
    hot = i;
  }
  return hot;
}

std::size_t Simulator::hot_count(std::string_view prefix) const {
  const auto nets = collect_bus(prefix);
  std::size_t n = 0;
  for (NetId net : nets) n += values_[net];
  return n;
}

void Simulator::enable_toggle_counting() {
  count_toggles_ = true;
  toggles_.assign(nl_->num_nets(), 0);
}

}  // namespace addm::sim
