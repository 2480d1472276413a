// Gate-level verification of exploration results — the exploration stage the
// word-parallel simulator exists for.  Until now full netlist-level
// verification was a spot-check (the randomized SRAG equivalence test); with
// the levelized 64-lane simulator it is cheap enough to run over every
// Pareto point of every explored trace.
//
// For each Pareto-front design point the candidate is rebuilt
// (GeneratorEntry::build), turned into the netlist that was scored
// (prepare_scored_netlist: sweep + buffer trees), and replayed against the
// trace in sim::WordSimulator with the stimulus replicated into all 64
// lanes: at every cycle the expected select line must be asserted in ALL
// lanes and every other line in none, so one replay checks both functional
// correctness and lane coherence.  The verdict is appended to the point's
// note — deterministically, so annotated results memoize, cache and shard
// exactly like plain ones.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/explorer.hpp"
#include "seq/trace.hpp"

namespace addm::core {

/// Tally of one trace's front verification.
struct FrontVerification {
  std::size_t verified = 0;  ///< points whose replay matched the trace
  std::size_t failed = 0;    ///< points whose replay diverged
  std::size_t skipped = 0;   ///< points whose candidate did not rebuild
};

/// Replays `trace` through `c`'s netlist (one reset cycle, then one cycle
/// per access) and checks the select buses against the trace's address
/// sequences in every lane.  Returns nullopt on success, a diagnostic on
/// the first divergence.
std::optional<std::string> verify_candidate(const Candidate& c,
                                            const seq::AddressTrace& trace);

/// Verifies every point of `front` (indices into `points`) and appends
/// " [verified: ...]" / " [verify FAILED: ...]" to the point notes.
/// Deterministic: the annotations are a pure function of (trace, points,
/// front, opt).
FrontVerification verify_pareto_points(const seq::AddressTrace& trace,
                                       std::vector<DesignPoint>& points,
                                       const std::vector<std::size_t>& front,
                                       const ExploreOptions& opt);

}  // namespace addm::core
