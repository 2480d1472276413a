// Design-space explorer — the paper's stated "final goal": given an address
// trace, evaluate every applicable generator architecture at a high level
// and report the area/delay landscape plus its Pareto front.
//
// Candidate architectures (see generator_registry() for the live table):
//  * SRAG (two-hot, Section 4)           — needs both dimensions mappable
//  * multi-counter SRAG (Section 4 ext.) — relaxed PassCnt restriction
//  * CntAG, flat decoders (baseline)     — always applicable
//  * CntAG, shared predecoders           — always applicable
//  * symbolic FSM, binary/gray/one-hot   — capped by a state budget; beyond
//    it the point is reported infeasible ("synthesis impractical", matching
//    the paper's Section-3 observation)
//  * SFM (Aloqeely)                      — FIFO traces only
//
// Determinism contract: explore_generators is a pure function of
// (trace, result-affecting ExploreOptions fields).  Candidates are built
// and measured one after another, in the order of a stable registry, so
// the returned vector is byte-identical across runs and hosts; parallelism
// lives one level up, across traces (core/batch_explorer).  Subset
// selection (archs) changes the output and is fingerprinted.  Everything
// below — the batch explorer's reports, the persistent evaluation cache,
// shard merging — leans on this contract.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/metrics.hpp"
#include "logic/minimize.hpp"
#include "netlist/netlist.hpp"
#include "seq/trace.hpp"
#include "tech/library.hpp"

namespace addm::core {

/// One evaluated candidate architecture.  Plain value type; everything here
/// is a pure function of (trace, ExploreOptions), which is what makes
/// design points safe to memoize and to persist in the evaluation cache.
struct DesignPoint {
  std::string architecture;  ///< stable candidate label (e.g. "SRAG", "CntAG-flat")
  bool feasible = false;
  std::string note;  ///< why infeasible, or config summary when feasible
  GeneratorMetrics metrics;  ///< zero-initialized when infeasible
};

/// Knobs that affect exploration.  Every user-settable field is one entry of
/// the exploration-option table (core/explore_flags.hpp), which also hashes
/// it into options_fingerprint — the persistent cache's only invalidation
/// mechanism.
struct ExploreOptions {
  tech::Library library = tech::Library::generic_180nm();
  int max_fanout = tech::kDefaultMaxFanout;
  /// FSM candidates are skipped above this many states (sequence length).
  std::size_t max_fsm_states = 1024;
  bool include_fsm = true;
  /// Candidate subset by registry name; empty selects every entry.  Names
  /// not in the registry select nothing.  Output-affecting: fingerprinted
  /// in canonical (registry-order, deduplicated) form, so a filtered run
  /// never shares cache keys with a full run.
  std::vector<std::string> archs;
  /// Gate-level verification of the Pareto front (core/verify.hpp): every
  /// front point is rebuilt, buffered exactly as it was scored, and
  /// replayed against the trace in the 64-lane word simulator; the verdict
  /// is appended to the point's note.  Output-affecting, so it is
  /// fingerprinted — but only when enabled, keeping default-options
  /// fingerprints (and thus existing cache directories and reports) pinned.
  bool verify_front = false;
  /// Two-level minimizer used inside FSM and CntAG elaboration
  /// (logic/minimize.hpp).  The default (Isop) reproduces the historical
  /// covers byte for byte; selecting Auto/Espresso/Exact changes netlists
  /// and therefore metrics, so a non-default value is fingerprinted — only
  /// when non-default, keeping default-options fingerprints pinned (the
  /// verify_front pattern).
  logic::MinimizeOptions minimize;
  /// Exact periodicity compression (seq/periodicity.hpp): when the trace is
  /// whole passes of one period (prefix-free, k >= 2 repeats, no partial
  /// tail), candidates are evaluated on a single period and every note is
  /// annotated "[periodic <k>x<p>]" — exploration cost scales with the
  /// period instead of the trace length.  Traces without such structure
  /// (all the built-in synthetic suites) are explored unchanged, byte for
  /// byte.  Output-affecting (FSM feasibility, metrics, and notes follow
  /// the period trace), so it is fingerprinted — but only when enabled,
  /// keeping default-options fingerprints pinned (the verify_front
  /// pattern).
  bool compress_periodic = false;
};

/// A feasible candidate: its elaborated (not yet buffered) netlist, the
/// note reported with its point, and the replay recipe for gate-level
/// verification — after one reset cycle with `drive` inputs applied, the
/// asserted line of `row_bus` (and `col_bus`, when present) must track the
/// trace's row/column address sequence cycle by cycle.  With an empty
/// `col_bus` the single bus is checked against the linear address sequence
/// (1-D generators such as the SFM).
struct Candidate {
  netlist::Netlist netlist;
  std::string note;
  /// Inputs held for the whole replay once "reset" is released.
  std::vector<std::pair<std::string, bool>> drive = {{"next", true}};
  std::string row_bus = "rs";
  std::string col_bus = "cs";
};

/// What a registry entry's `build` returns: the candidate, or the reason
/// it is infeasible for the trace.
using BuildResult = std::variant<Candidate, std::string>;

/// One self-describing candidate architecture in the registry.  `build` is
/// the only place the candidate's netlist is constructed; it is a pure
/// function of its arguments and thread-safe for concurrent invocation.
/// Per-candidate rejection is a returned reason, never an exception; it
/// throws only for degenerate traces that no candidate could process.
struct GeneratorEntry {
  /// Stable label; doubles as the `archs` filter key and the report value.
  std::string name;
  /// Whether this candidate produces a point at all under `opt` (e.g. FSM
  /// entries disappear when include_fsm is false).  Per-trace rejection is
  /// NOT applicability: an over-budget FSM or a non-FIFO SFM stays
  /// applicable and reports an infeasible point.
  std::function<bool(const seq::AddressTrace&, const ExploreOptions&)> applicable;
  /// Maps + elaborates the candidate for `trace`.
  std::function<BuildResult(const seq::AddressTrace&, const ExploreOptions&)> build;

  /// Runs `build`, then measures the netlist (measure_netlist: buffering,
  /// STA, area) into this candidate's design point.
  DesignPoint elaborate(const seq::AddressTrace& trace, const ExploreOptions& opt) const;
};

/// The stable-ordered candidate table.  The order is part of the output
/// contract: explore_generators returns points in registry order, reports
/// render rows in registry order, and the canonical `archs` fingerprint
/// form is the registry-order intersection.  Append-only across versions;
/// reordering or renaming entries requires a kOptionsFingerprintSeed bump
/// (core/fingerprint.hpp).
const std::vector<GeneratorEntry>& generator_registry();

/// Registry names, in registry order — the valid `archs` values.
std::vector<std::string> generator_names();

/// Evaluates every applicable candidate architecture for `trace`, serially
/// in registry order, and returns one DesignPoint per candidate.
/// Deterministic: equal (trace, opt) inputs produce equal output, byte for
/// byte, across runs and hosts.  Thread-safe for concurrent calls (shared
/// state is read-only).  May throw (std::invalid_argument and friends) on
/// degenerate traces, e.g. empty ones — the exception of the first failing
/// entry in registry order — while per-candidate infeasibility is reported
/// in the points, not thrown.
std::vector<DesignPoint> explore_generators(const seq::AddressTrace& trace,
                                            const ExploreOptions& opt = {});

/// Indices of the area/delay Pareto-optimal feasible points, in ascending
/// index order.  Deterministic and side-effect free.
std::vector<std::size_t> pareto_front(const std::vector<DesignPoint>& points);

/// Fixed-width text table of the exploration result.  Deterministic
/// formatting (fixed precision, stable column order); the architecture
/// column widens to the longest name plus two spaces, so long names never
/// collide with the feasible column.
std::string format_exploration(const std::vector<DesignPoint>& points);

}  // namespace addm::core
