// NetlistBuilder: convenience layer for constructing well-formed netlists.
//
// The builder provides one method per cell type plus word-level helpers
// (balanced gate trees, constants). By default it performs:
//  * constant folding   (AND2(x,0) -> const0, MUX2(s,d,d) -> d, ...)
//  * structural hashing (identical (type, inputs) tuples share one cell)
//  * inverter pairing   (INV(INV(x)) -> x, AND2(x, INV(x)) -> const0)
//
// Structural hashing can be disabled (`set_sharing(false)`) to model a
// sharing-free "flat" synthesis style; this is the knob behind the
// bench_ablation_sharing experiment.
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"

namespace addm::netlist {

class NetlistBuilder {
 public:
  /// The builder mutates `nl`, which must outlive it.
  explicit NetlistBuilder(Netlist& nl) : nl_(&nl) {}

  Netlist& netlist() { return *nl_; }
  const Netlist& netlist() const { return *nl_; }

  /// Enables/disables structural hashing (constant folding always applies).
  void set_sharing(bool on) { sharing_ = on; }
  bool sharing() const { return sharing_; }

  // --- ports ---------------------------------------------------------------
  NetId input(std::string name) { return nl_->add_input(std::move(name)); }
  /// Declares one input per bit; names are "<name>[i]", LSB first.
  std::vector<NetId> input_bus(const std::string& name, int bits);
  void output(std::string name, NetId n) { nl_->add_output(std::move(name), n); }
  void output_bus(const std::string& name, std::span<const NetId> nets);

  // --- combinational primitives ---------------------------------------------
  NetId inv(NetId a);
  NetId buf(NetId a);
  NetId nand2(NetId a, NetId b);
  NetId nor2(NetId a, NetId b);
  NetId and2(NetId a, NetId b);
  NetId or2(NetId a, NetId b);
  NetId xor2(NetId a, NetId b);
  NetId xnor2(NetId a, NetId b);
  /// out = sel ? d1 : d0
  NetId mux2(NetId sel, NetId d0, NetId d1);

  // --- sequential primitives -------------------------------------------------
  NetId dff(NetId d);
  NetId dff_r(NetId d, NetId rst);            ///< rst==1: next state 0
  NetId dff_s(NetId d, NetId set);            ///< set==1: next state 1
  NetId dff_e(NetId d, NetId en);             ///< en==0: hold
  NetId dff_er(NetId d, NetId en, NetId rst); ///< reset dominant over enable
  NetId dff_es(NetId d, NetId en, NetId set); ///< set dominant over enable

  // --- word-level helpers -----------------------------------------------------
  /// Balanced reduction trees; empty spans yield the operation's identity.
  NetId and_tree(std::span<const NetId> xs);
  NetId or_tree(std::span<const NetId> xs);

  /// Constant word, LSB first.
  std::vector<NetId> constant_word(std::uint64_t value, int bits) const;

  /// out = sel ? d1 : d0, element-wise (d0.size()==d1.size()).
  std::vector<NetId> mux2_word(NetId sel, std::span<const NetId> d0,
                               std::span<const NetId> d1);

  /// 1 iff word equals the constant `value` (LSB-first word).
  NetId equals_const(std::span<const NetId> word, std::uint64_t value);

 private:
  NetId emit(CellType type, std::vector<NetId> inputs);
  NetId reduce_tree(CellType op, std::span<const NetId> xs, NetId identity);

  struct Key {
    CellType type;
    NetId a = kInvalidNet, b = kInvalidNet, c = kInvalidNet;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::size_t h = static_cast<std::size_t>(k.type);
      auto mix = [&h](NetId n) { h = h * 1000003u + n + 0x9e3779b9u; };
      mix(k.a); mix(k.b); mix(k.c);
      return h;
    }
  };

  Netlist* nl_;
  bool sharing_ = true;
  std::unordered_map<Key, NetId, KeyHash> cache_;
  std::unordered_map<NetId, NetId> inv_of_;  // both directions, for pairing
};

}  // namespace addm::netlist
