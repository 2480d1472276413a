#include "netlist/builder.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace addm::netlist {

std::vector<NetId> NetlistBuilder::input_bus(const std::string& name, int bits) {
  std::vector<NetId> nets;
  nets.reserve(static_cast<std::size_t>(bits));
  for (int i = 0; i < bits; ++i)
    nets.push_back(input(name + "[" + std::to_string(i) + "]"));
  return nets;
}

void NetlistBuilder::output_bus(const std::string& name, std::span<const NetId> nets) {
  for (std::size_t i = 0; i < nets.size(); ++i)
    output(name + "[" + std::to_string(i) + "]", nets[i]);
}

NetId NetlistBuilder::emit(CellType type, std::vector<NetId> inputs) {
  Key key{type};
  if (traits(type).commutative && inputs.size() == 2 && inputs[0] > inputs[1])
    std::swap(inputs[0], inputs[1]);
  if (!inputs.empty()) key.a = inputs[0];
  if (inputs.size() > 1) key.b = inputs[1];
  if (inputs.size() > 2) key.c = inputs[2];

  const bool cacheable = sharing_ && !is_sequential(type);
  if (cacheable) {
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  const NetId out = nl_->new_net();
  nl_->add_cell(type, std::move(inputs), out);
  if (cacheable) cache_.emplace(key, out);
  return out;
}

NetId NetlistBuilder::inv(NetId a) {
  if (a == kConst0) return kConst1;
  if (a == kConst1) return kConst0;
  if (auto it = inv_of_.find(a); it != inv_of_.end()) return it->second;
  const NetId out = emit(CellType::Inv, {a});
  inv_of_.emplace(a, out);
  inv_of_.emplace(out, a);
  return out;
}

NetId NetlistBuilder::buf(NetId a) {
  // Buffers are only inserted explicitly (fanout repair); never folded here.
  return emit(CellType::Buf, {a});
}

NetId NetlistBuilder::and2(NetId a, NetId b) {
  if (a == kConst0 || b == kConst0) return kConst0;
  if (a == kConst1) return b;
  if (b == kConst1) return a;
  if (a == b) return a;
  if (auto it = inv_of_.find(a); it != inv_of_.end() && it->second == b) return kConst0;
  return emit(CellType::And2, {a, b});
}

NetId NetlistBuilder::or2(NetId a, NetId b) {
  if (a == kConst1 || b == kConst1) return kConst1;
  if (a == kConst0) return b;
  if (b == kConst0) return a;
  if (a == b) return a;
  if (auto it = inv_of_.find(a); it != inv_of_.end() && it->second == b) return kConst1;
  return emit(CellType::Or2, {a, b});
}

NetId NetlistBuilder::nand2(NetId a, NetId b) {
  if (a == kConst0 || b == kConst0) return kConst1;
  if (a == kConst1) return inv(b);
  if (b == kConst1) return inv(a);
  if (a == b) return inv(a);
  return emit(CellType::Nand2, {a, b});
}

NetId NetlistBuilder::nor2(NetId a, NetId b) {
  if (a == kConst1 || b == kConst1) return kConst0;
  if (a == kConst0) return inv(b);
  if (b == kConst0) return inv(a);
  if (a == b) return inv(a);
  return emit(CellType::Nor2, {a, b});
}

NetId NetlistBuilder::xor2(NetId a, NetId b) {
  if (a == b) return kConst0;
  if (a == kConst0) return b;
  if (b == kConst0) return a;
  if (a == kConst1) return inv(b);
  if (b == kConst1) return inv(a);
  if (auto it = inv_of_.find(a); it != inv_of_.end() && it->second == b) return kConst1;
  return emit(CellType::Xor2, {a, b});
}

NetId NetlistBuilder::xnor2(NetId a, NetId b) {
  if (a == b) return kConst1;
  if (a == kConst0) return inv(b);
  if (b == kConst0) return inv(a);
  if (a == kConst1) return b;
  if (b == kConst1) return a;
  if (auto it = inv_of_.find(a); it != inv_of_.end() && it->second == b) return kConst0;
  return emit(CellType::Xnor2, {a, b});
}

NetId NetlistBuilder::mux2(NetId sel, NetId d0, NetId d1) {
  if (sel == kConst0) return d0;
  if (sel == kConst1) return d1;
  if (d0 == d1) return d0;
  if (d0 == kConst0 && d1 == kConst1) return sel;
  if (d0 == kConst1 && d1 == kConst0) return inv(sel);
  if (d0 == kConst0) return and2(sel, d1);
  if (d0 == kConst1) return or2(inv(sel), d1);
  if (d1 == kConst0) return and2(inv(sel), d0);
  if (d1 == kConst1) return or2(sel, d0);
  return emit(CellType::Mux2, {sel, d0, d1});
}

NetId NetlistBuilder::dff(NetId d) { return emit(CellType::Dff, {d}); }
NetId NetlistBuilder::dff_r(NetId d, NetId rst) { return emit(CellType::DffR, {d, rst}); }
NetId NetlistBuilder::dff_s(NetId d, NetId set) { return emit(CellType::DffS, {d, set}); }
NetId NetlistBuilder::dff_e(NetId d, NetId en) { return emit(CellType::DffE, {d, en}); }
NetId NetlistBuilder::dff_er(NetId d, NetId en, NetId rst) {
  return emit(CellType::DffER, {d, en, rst});
}
NetId NetlistBuilder::dff_es(NetId d, NetId en, NetId set) {
  return emit(CellType::DffES, {d, en, set});
}

NetId NetlistBuilder::reduce_tree(CellType op, std::span<const NetId> xs, NetId identity) {
  if (xs.empty()) return identity;
  std::vector<NetId> level(xs.begin(), xs.end());
  while (level.size() > 1) {
    std::vector<NetId> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      switch (op) {
        case CellType::And2: next.push_back(and2(level[i], level[i + 1])); break;
        case CellType::Or2:  next.push_back(or2(level[i], level[i + 1])); break;
        case CellType::Xor2: next.push_back(xor2(level[i], level[i + 1])); break;
        default: throw std::logic_error("reduce_tree: unsupported op");
      }
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  return level.front();
}

NetId NetlistBuilder::and_tree(std::span<const NetId> xs) {
  return reduce_tree(CellType::And2, xs, kConst1);
}
NetId NetlistBuilder::or_tree(std::span<const NetId> xs) {
  return reduce_tree(CellType::Or2, xs, kConst0);
}

std::vector<NetId> NetlistBuilder::constant_word(std::uint64_t value, int bits) const {
  std::vector<NetId> word(static_cast<std::size_t>(bits));
  for (int i = 0; i < bits; ++i) word[static_cast<std::size_t>(i)] = (value >> i) & 1 ? kConst1 : kConst0;
  return word;
}

std::vector<NetId> NetlistBuilder::mux2_word(NetId sel, std::span<const NetId> d0,
                                             std::span<const NetId> d1) {
  assert(d0.size() == d1.size());
  std::vector<NetId> out(d0.size());
  for (std::size_t i = 0; i < d0.size(); ++i) out[i] = mux2(sel, d0[i], d1[i]);
  return out;
}

NetId NetlistBuilder::equals_const(std::span<const NetId> word, std::uint64_t value) {
  std::vector<NetId> lits;
  lits.reserve(word.size());
  for (std::size_t i = 0; i < word.size(); ++i)
    lits.push_back((value >> i) & 1 ? word[i] : inv(word[i]));
  return and_tree(lits);
}

}  // namespace addm::netlist
