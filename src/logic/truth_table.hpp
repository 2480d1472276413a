// Dense truth tables over up to 24 variables, stored as 64-bit words.
//
// Bit m of the table is f(m) where variable k contributes bit k of the
// minterm index m. Tables are the workhorse of the logic-minimization layer:
// the ISOP minimizer cofactors them, and tests verify covers against them.
#pragma once

#include <cstdint>
#include <vector>

namespace addm::logic {

class TruthTable {
 public:
  /// All-zero function of `num_vars` variables (0 <= num_vars <= 24).
  explicit TruthTable(int num_vars);

  static TruthTable zeros(int num_vars) { return TruthTable(num_vars); }
  static TruthTable ones(int num_vars);
  /// The projection function f = x_k.
  static TruthTable var(int num_vars, int k);

  int num_vars() const { return num_vars_; }
  std::uint64_t num_minterms_capacity() const { return std::uint64_t{1} << num_vars_; }

  bool get(std::uint64_t minterm) const;
  void set(std::uint64_t minterm, bool value);

  bool is_zero() const;
  bool is_ones() const;
  /// Number of minterms where f = 1.
  std::uint64_t count_ones() const;
  bool depends_on(int k) const;
  /// Highest variable index the function depends on, or -1 if constant.
  int top_var() const { return top_var(num_vars_); }
  /// Highest variable index below `below` the function depends on, or -1.
  /// Equals top_var() whenever the function ignores x_below and above.
  int top_var(int below) const;

  /// Cofactor with respect to x_k = val; result no longer depends on x_k.
  TruthTable cofactor(int k, bool val) const;

  // Pointwise operators.
  TruthTable operator&(const TruthTable& o) const;
  TruthTable operator|(const TruthTable& o) const;
  TruthTable operator^(const TruthTable& o) const;
  TruthTable operator~() const;
  /// this & ~o ("and-not"), the set difference used by ISOP.
  TruthTable diff(const TruthTable& o) const;

  bool operator==(const TruthTable& o) const = default;
  /// Hash of the variable count and every word; equal tables hash equal.
  std::uint64_t hash() const;

  /// True if this implies o (this <= o pointwise).
  bool implies(const TruthTable& o) const;

 private:
  int num_vars_;
  std::vector<std::uint64_t> words_;
  std::uint64_t live_mask(std::size_t word_index) const;
  void normalize();
};

}  // namespace addm::logic
