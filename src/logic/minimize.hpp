// Unified two-level minimization entry point.
//
// The synthesis layer (synth/fsm, core/cntag) used to call logic::isop
// directly; this dispatcher routes an incompletely specified function to
// the right minimizer:
//  * Isop      — the dense Minato-Morreale recursion (the historical
//                default; exponential in variables but exact-quality on
//                the small functions the default pipeline produces),
//  * Exact     — Quine-McCluskey + branch-and-bound (guaranteed minimum
//                cube count; n <= 12),
//  * Espresso  — the cube-list heuristic (logic/espresso.hpp), whose cost
//                scales with cube count rather than 2^n,
//  * Auto      — Isop below `heuristic_min_vars` variables, Espresso at or
//                above it.
//
// Determinism contract: the default MinimizeOptions routes every function
// through Isop, byte-identically to the pre-dispatcher behavior — so
// default-options exploration fingerprints, reports, and persisted
// eval_cache directories stay pinned.  Non-default options are
// output-affecting and are hashed by core::options_fingerprint (only when
// non-default, following the verify_front pattern).
//
// Memoization: while a MinimizeMemo is alive on a thread, minimize() on that
// thread returns a stored copy of the cover for any (lower, upper, opt) it
// has already minimized.  Exploration opens one per trace, because several
// candidates minimize the same functions (the three CntAG decoder variants
// share the index->address bits, both FSM halves share next_state, and
// --verify-front rebuilds front points).  Since minimize is a pure function,
// a memoized cover is the cover, so nothing downstream can tell.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "logic/cube.hpp"
#include "logic/truth_table.hpp"

namespace addm::logic {

enum class MinimizerAlgo {
  Isop,      ///< dense ISOP recursion (historical default)
  Exact,     ///< Quine-McCluskey exact minimum (n <= 12)
  Espresso,  ///< cube-list expand/irredundant/reduce heuristic
  Auto,      ///< Isop for small functions, Espresso above the threshold
};

/// Default Auto crossover: at 9+ variables the dense recursion's 2^n
/// footprint starts to dominate FSM elaboration (ISSUE 3 profile), while
/// the cube-list heuristic keeps scaling with the state count.
inline constexpr int kDefaultHeuristicMinVars = 9;

struct MinimizeOptions {
  MinimizerAlgo algo = MinimizerAlgo::Isop;
  /// Auto only: functions of at least this many variables use Espresso.
  int heuristic_min_vars = kDefaultHeuristicMinVars;

  bool operator==(const MinimizeOptions&) const = default;
};

/// Minimizes onset_lower <= f <= onset_upper with the selected algorithm.
/// Requires matching variable counts and onset_lower.implies(onset_upper);
/// throws std::invalid_argument otherwise (uniformly, whichever backend is
/// selected), before any memo lookup.  Deterministic: a pure function of
/// (L, U, opt).
Cover minimize(const TruthTable& onset_lower, const TruthTable& onset_upper,
               const MinimizeOptions& opt = {});

/// Completely specified convenience overload.
Cover minimize(const TruthTable& f, const MinimizeOptions& opt = {});

/// RAII memo scope for minimize() on the constructing thread.  Scopes nest:
/// the innermost one is used, and closing it restores the one it shadowed.
/// With no scope open nothing is cached.  Not movable, and must be destroyed
/// on the thread that created it.
class MinimizeMemo {
 public:
  MinimizeMemo();
  ~MinimizeMemo();
  MinimizeMemo(const MinimizeMemo&) = delete;
  MinimizeMemo& operator=(const MinimizeMemo&) = delete;

  /// Covers stored so far.
  std::size_t size() const { return size_; }

 private:
  friend Cover minimize(const TruthTable&, const TruthTable&, const MinimizeOptions&);
  struct Entry {
    TruthTable lower, upper;
    MinimizeOptions opt;
    Cover cover;
  };
  // Bucketed by the lower bound's hash, matched by full equality of both
  // bounds and the options: a collision costs a compare, never a wrong cover.
  std::unordered_map<std::uint64_t, std::vector<Entry>> buckets_;
  std::size_t size_ = 0;
  MinimizeMemo* const outer_;  // the scope this one shadows, restored on close
};

/// The backend `minimize` would use for a function of `num_vars` variables
/// under `opt` (never returns Auto).  Exposed so reports, benches, and docs
/// can state the policy.
MinimizerAlgo selected_minimizer(int num_vars, const MinimizeOptions& opt);

/// Stable lowercase name ("isop", "exact", "espresso", "auto") — the CLI
/// spelling of `--minimizer` values.
const char* minimizer_name(MinimizerAlgo algo);

}  // namespace addm::logic
