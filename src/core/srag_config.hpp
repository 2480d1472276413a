// SRAG configuration: the outcome of the Section-5 mapping procedure for one
// dimension (row or column) of the address decoder-decoupled memory.
//
// A configured SRAG consists of:
//  * a set of shift registers S = (S_0..S_{N-1}); register i has M_i
//    flip-flops, and flip-flop (i,j) drives one select line — `registers[i][j]`
//    is that select line's index (equivalently, the one-dimensional address);
//  * a division count dC shared by all addresses (DivCnt): each address is
//    held for dC consecutive `next` pulses;
//  * a pass count pC shared by all registers (PassCnt): after every pC
//    enabled shifts the token leaves its register for the next one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace addm::core {

struct SragConfig {
  /// registers[i][j] = select line driven by flip-flop j of shift register i,
  /// in token traversal order. The token starts at registers[0][0].
  std::vector<std::vector<std::uint32_t>> registers;
  std::uint32_t div_count = 1;   ///< dC >= 1
  std::uint32_t pass_count = 1;  ///< pC >= 1
  std::uint32_t num_select_lines = 0;

  std::size_t num_registers() const { return registers.size(); }
  std::size_t num_flipflops() const;

  /// Validates structural invariants (non-empty registers, select lines in
  /// range and pairwise distinct, counts >= 1). Throws std::invalid_argument.
  void check() const;
};

/// The intermediate sets of the mapping procedure, in the paper's notation
/// (Table 2). Kept alongside the config for reporting and for Table-2
/// reproduction.
struct MappingParameters {
  std::vector<std::uint32_t> I;  ///< input address sequence
  std::vector<std::uint32_t> D;  ///< run lengths (division counts)
  std::vector<std::uint32_t> R;  ///< run-collapsed sequence
  std::vector<std::uint32_t> U;  ///< unique addresses in first-appearance order
  std::vector<std::uint32_t> O;  ///< occurrences of each unique address in R
  std::vector<std::uint32_t> Z;  ///< first position of each unique address in R
  std::vector<std::uint32_t> P;  ///< per-register pass counts (M_i * iterations)
  std::uint32_t dC = 0;
  std::uint32_t pC = 0;
  std::vector<std::vector<std::uint32_t>> S;  ///< select-line grouping

  std::string to_string() const;  ///< multi-line, Table-2 style
};

}  // namespace addm::core
