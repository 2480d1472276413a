#include "netlist/netlist.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <stdexcept>

namespace addm::netlist {
namespace {
// driver_ encoding per net.
constexpr NetId kDrvNone = 0;
constexpr NetId kDrvPrimaryInput = 1;
constexpr NetId kDrvConst = 2;
constexpr NetId kDrvCellBase = 3;  // cell index i stored as i + kDrvCellBase
}  // namespace

Netlist::Netlist() {
  // Nets 0 and 1 are the constant nets.
  num_nets_ = 2;
  driver_ = {kDrvConst, kDrvConst};
}

NetId Netlist::new_net() {
  driver_.push_back(kDrvNone);
  return static_cast<NetId>(num_nets_++);
}

NetId Netlist::add_input(std::string name) {
  const NetId n = new_net();
  driver_[n] = kDrvPrimaryInput;
  input_nets_.push_back(n);
  input_names_.push_back(std::move(name));
  return n;
}

void Netlist::bind_input(std::string name, NetId net) {
  if (net >= num_nets_) throw std::out_of_range("bind_input: unknown net");
  if (net == kConst0 || net == kConst1)
    throw std::invalid_argument("bind_input: cannot bind a constant net");
  if (driver_[net] != kDrvNone)
    throw std::invalid_argument("bind_input: net already driven");
  driver_[net] = kDrvPrimaryInput;
  input_nets_.push_back(net);
  input_names_.push_back(std::move(name));
}

void Netlist::add_output(std::string name, NetId net) {
  if (net >= num_nets_) throw std::out_of_range("add_output: unknown net");
  output_nets_.push_back(net);
  output_names_.push_back(std::move(name));
}

std::size_t Netlist::add_cell(CellType type, std::vector<NetId> inputs, NetId output) {
  const CellTraits t = traits(type);
  if (static_cast<int>(inputs.size()) != t.num_inputs)
    throw std::invalid_argument("add_cell: arity mismatch for " + std::string(t.name));
  for (NetId in : inputs)
    if (in >= num_nets_) throw std::out_of_range("add_cell: unknown input net");
  if (output >= num_nets_) throw std::out_of_range("add_cell: unknown output net");
  const std::size_t idx = cells_.size();
  cells_.push_back(Cell{type, std::move(inputs), output});
  // Record the driver; duplicates are reported by validate() rather than
  // thrown here so that analysis tools can inspect malformed netlists.
  if (driver_[output] == kDrvNone)
    driver_[output] = static_cast<NetId>(idx) + kDrvCellBase;
  return idx;
}

void Netlist::set_cell_input(std::size_t cell, int pin, NetId net) {
  if (cell >= cells_.size()) throw std::out_of_range("set_cell_input: bad cell");
  if (pin < 0 || static_cast<std::size_t>(pin) >= cells_[cell].inputs.size())
    throw std::out_of_range("set_cell_input: bad pin");
  if (net >= num_nets_) throw std::out_of_range("set_cell_input: unknown net");
  cells_[cell].inputs[static_cast<std::size_t>(pin)] = net;
}

void Netlist::set_cell_drive(std::size_t cell, int drive) {
  if (cell >= cells_.size()) throw std::out_of_range("set_cell_drive: bad cell");
  if (drive != 1 && drive != 2 && drive != 4)
    throw std::invalid_argument("set_cell_drive: drive must be 1, 2 or 4");
  cells_[cell].drive = static_cast<std::uint8_t>(drive);
}

void Netlist::set_output_net(std::size_t index, NetId net) {
  if (index >= output_nets_.size()) throw std::out_of_range("set_output_net: bad index");
  if (net >= num_nets_) throw std::out_of_range("set_output_net: unknown net");
  output_nets_[index] = net;
}

std::optional<NetId> Netlist::find_input(std::string_view name) const {
  for (std::size_t i = 0; i < input_names_.size(); ++i)
    if (input_names_[i] == name) return input_nets_[i];
  return std::nullopt;
}

std::optional<NetId> Netlist::find_output(std::string_view name) const {
  for (std::size_t i = 0; i < output_names_.size(); ++i)
    if (output_names_[i] == name) return output_nets_[i];
  return std::nullopt;
}

std::vector<NetId> Netlist::output_bus(std::string_view prefix) const {
  // A bus of width w needs w distinct outputs, so indices at or above the
  // output count can never be part of it.
  constexpr NetId kUnset = ~NetId{0};
  std::vector<NetId> slots(output_names_.size(), kUnset);
  for (std::size_t i = 0; i < output_names_.size(); ++i) {
    const std::string_view name = output_names_[i];
    if (name.size() < prefix.size() + 2 || !name.starts_with(prefix) ||
        name[prefix.size()] != '[' || name.back() != ']')
      continue;
    // The index must be spelled as std::to_string spells it: decimal digits
    // only, without a leading zero.
    const std::string_view digits =
        name.substr(prefix.size() + 1, name.size() - prefix.size() - 2);
    std::size_t index = 0;
    const char* end = digits.data() + digits.size();
    const auto [ptr, ec] = std::from_chars(digits.data(), end, index);
    if (ec != std::errc{} || ptr != end || (digits.size() > 1 && digits[0] == '0')) continue;
    if (index < slots.size() && slots[index] == kUnset) slots[index] = output_nets_[i];
  }
  std::size_t width = 0;
  while (width < slots.size() && slots[width] != kUnset) ++width;
  slots.resize(width);
  return slots;
}

std::optional<std::size_t> Netlist::driver_of(NetId net) const {
  if (net >= num_nets_) return std::nullopt;
  const NetId d = driver_[net];
  if (d >= kDrvCellBase) return d - kDrvCellBase;
  return std::nullopt;
}

bool Netlist::is_primary_input(NetId net) const {
  return net < num_nets_ && driver_[net] == kDrvPrimaryInput;
}

NetlistStats Netlist::stats() const {
  NetlistStats s;
  s.num_nets = num_nets_;
  s.num_cells = cells_.size();
  for (const Cell& c : cells_) {
    ++s.count[static_cast<int>(c.type)];
    if (is_sequential(c.type))
      ++s.num_seq;
    else
      ++s.num_comb;
  }
  return s;
}

std::vector<std::uint32_t> Netlist::fanout_counts() const {
  std::vector<std::uint32_t> fo(num_nets_, 0);
  for (const Cell& c : cells_)
    for (NetId in : c.inputs) ++fo[in];
  for (NetId out : output_nets_) ++fo[out];
  return fo;
}

std::optional<std::vector<std::size_t>> Netlist::topo_order() const {
  // Kahn's algorithm over combinational cells only. A combinational cell
  // depends on another combinational cell when it reads its output net;
  // flip-flop outputs, PIs and constants are sources.
  std::vector<std::size_t> order;
  order.reserve(cells_.size());

  std::vector<std::uint32_t> pending(cells_.size(), 0);
  // users[cell] = combinational cells reading this cell's output.
  std::vector<std::vector<std::size_t>> users(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const Cell& c = cells_[i];
    if (is_sequential(c.type)) continue;
    for (NetId in : c.inputs) {
      const auto drv = driver_of(in);
      if (drv && !is_sequential(cells_[*drv].type)) {
        users[*drv].push_back(i);
        ++pending[i];
      }
    }
  }

  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < cells_.size(); ++i)
    if (!is_sequential(cells_[i].type) && pending[i] == 0) ready.push_back(i);

  while (!ready.empty()) {
    const std::size_t i = ready.back();
    ready.pop_back();
    order.push_back(i);
    for (std::size_t u : users[i])
      if (--pending[u] == 0) ready.push_back(u);
  }

  std::size_t num_comb = 0;
  for (const Cell& c : cells_)
    if (!is_sequential(c.type)) ++num_comb;
  if (order.size() != num_comb) return std::nullopt;  // combinational loop
  return order;
}

std::size_t Netlist::sweep_dead_cells() {
  // Mark nets reachable backwards from primary outputs.
  std::vector<char> live_net(num_nets_, 0);
  std::vector<NetId> work;
  auto mark = [&](NetId n) {
    if (!live_net[n]) {
      live_net[n] = 1;
      work.push_back(n);
    }
  };
  for (NetId out : output_nets_) mark(out);
  while (!work.empty()) {
    const NetId n = work.back();
    work.pop_back();
    const auto drv = driver_of(n);
    if (!drv) continue;
    for (NetId in : cells_[*drv].inputs) mark(in);
  }

  std::vector<Cell> kept;
  kept.reserve(cells_.size());
  std::size_t removed = 0;
  for (Cell& c : cells_) {
    if (live_net[c.output]) {
      kept.push_back(std::move(c));
    } else {
      driver_[c.output] = kDrvNone;
      ++removed;
    }
  }
  cells_ = std::move(kept);
  // Re-number the surviving drivers.
  for (std::size_t i = 0; i < cells_.size(); ++i)
    driver_[cells_[i].output] = static_cast<NetId>(i) + kDrvCellBase;
  return removed;
}

std::vector<ValidationIssue> Netlist::validate() const {
  std::vector<ValidationIssue> issues;
  auto report = [&](ValidationIssue::Kind k, std::string detail) {
    issues.push_back(ValidationIssue{k, std::move(detail)});
  };

  // Recompute drivers to catch multiple-driver conflicts that add_cell saw.
  std::vector<int> drivers(num_nets_, 0);
  drivers[kConst0] = drivers[kConst1] = 1;
  for (NetId n : input_nets_) ++drivers[n];
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const Cell& c = cells_[i];
    if (static_cast<int>(c.inputs.size()) != traits(c.type).num_inputs)
      report(ValidationIssue::Kind::BadArity,
             "cell " + std::to_string(i) + " (" + std::string(cell_name(c.type)) + ")");
    if (c.output == kConst0 || c.output == kConst1)
      report(ValidationIssue::Kind::ConstantDriven, "cell " + std::to_string(i));
    ++drivers[c.output];
  }
  for (NetId n = 0; n < num_nets_; ++n) {
    if (drivers[n] > 1)
      report(ValidationIssue::Kind::MultipleDrivers, "net " + std::to_string(n));
  }

  auto check_read = [&](NetId n, const std::string& where) {
    if (drivers[n] == 0)
      report(ValidationIssue::Kind::UndrivenNet, "net " + std::to_string(n) + " read by " + where);
  };
  for (std::size_t i = 0; i < cells_.size(); ++i)
    for (NetId in : cells_[i].inputs) check_read(in, "cell " + std::to_string(i));
  for (std::size_t i = 0; i < output_nets_.size(); ++i)
    check_read(output_nets_[i], "output " + output_names_[i]);

  if (!topo_order())
    report(ValidationIssue::Kind::CombinationalLoop, "combinational cycle detected");
  return issues;
}

}  // namespace addm::netlist
