// Gate-level verification of exploration results — the exploration stage the
// word-parallel simulator exists for.  Until now full netlist-level
// verification was a spot-check (the randomized SRAG equivalence test); with
// the levelized 64-lane simulator it is cheap enough to run over every
// Pareto point of every explored trace.
//
// For each Pareto-front design point the candidate is rebuilt
// (GeneratorEntry::build), turned into the netlist that was scored
// (prepare_scored_netlist: sweep + buffer trees), and replayed against the
// trace in sim::WordSimulator as 64 segments side by side.  With T trace
// cycles and S = ceil(T/64), lane l replays cycles [l*S, (l+1)*S):
//
//  1. A serial pass runs the next-state cone only (step_state) from reset
//     and records the flip-flop state at every S-th cycle as one lane's
//     seed.
//  2. A parallel pass loads the seeds and runs S full cycles, checking at
//     each one that every live lane asserts exactly its expected select line.
//  3. A seam check requires each lane's final state to equal the next lane's
//     seed, so the segments stitch into one replay from reset.
//
// Every trace cycle is checked once, and a failure names the earliest
// failing cycle in trace order with the same bus and line (row bus first,
// lowest line first) that a replay with the stimulus in all 64 lanes would
// name.  The verdict is appended to the point's note — deterministically, so
// annotated results memoize, cache and shard exactly like plain ones.
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
/// per access, split into 64 segments) and checks the select buses against
/// the trace's address sequences.  Returns nullopt on success, a diagnostic
/// on the earliest divergence.
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
