#include "core/explore_flags.hpp"

#include <algorithm>

#include "logic/minimize.hpp"
#include "seq/trace.hpp"
#include "tech/buffering.hpp"

namespace addm::core {

namespace {

// Entry names that options_fingerprint also hashes as tags: their bytes are
// part of every persisted non-default cache key.
constexpr std::string_view kArchs = "archs";
constexpr std::string_view kMinimizer = "minimizer";

// Stores a decimal in [lo, hi] into `out`; otherwise sets `error` to
// `message`.
template <typename T>
bool parse_in_range(std::string_view value, std::uint64_t lo, std::uint64_t hi,
                    T& out, std::string& error, const char* message) {
  std::uint64_t v = 0;
  if (!seq::parse_u64(value, v) || v < lo || v > hi) {
    error = message;
    return false;
  }
  out = static_cast<T>(v);
  return true;
}

// The apply of a flag: stores `Value` into `Field`.
template <bool ExploreOptions::*Field, bool Value>
bool set_flag(ExploreOptions& opt, std::string_view, std::string&) {
  opt.*Field = Value;
  return true;
}

bool apply_archs(ExploreOptions& opt, std::string_view value, std::string& error) {
  const std::vector<std::string> known = generator_names();
  std::size_t added = 0;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    const std::size_t comma = std::min(value.find(',', pos), value.size());
    const std::string name(value.substr(pos, comma - pos));
    pos = comma + 1;
    if (name.empty()) continue;
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      error = "archs: unknown architecture '" + name + "' (known:";
      for (const std::string& k : known) error += " " + k;
      error += ")";
      return false;
    }
    opt.archs.push_back(name);
    ++added;
  }
  if (added != 0) return true;
  error = "archs expects a comma-separated list of names";
  return false;
}

// An archs subset changes which points exist, so it is hashed — in
// canonical form (registry-order intersection, deduplicated, and a filter
// selecting the whole registry collapses to no filter), making every
// equal-output spelling share one key.
void hash_archs(Fnv1a64& h, const ExploreOptions& opt) {
  if (opt.archs.empty()) return;
  std::vector<std::string> selected;
  const std::vector<std::string> names = generator_names();
  for (const std::string& name : names) {
    if (std::find(opt.archs.begin(), opt.archs.end(), name) != opt.archs.end())
      selected.push_back(name);
  }
  if (selected.size() == names.size()) return;
  h.str(kArchs);
  for (const std::string& name : selected) h.str(name);
}

constexpr logic::MinimizerAlgo kAlgos[] = {
    logic::MinimizerAlgo::Isop, logic::MinimizerAlgo::Exact,
    logic::MinimizerAlgo::Espresso, logic::MinimizerAlgo::Auto};

bool apply_minimizer(ExploreOptions& opt, std::string_view value, std::string& error) {
  for (logic::MinimizerAlgo algo : kAlgos) {
    if (value == logic::minimizer_name(algo)) {
      opt.minimize.algo = algo;
      return true;
    }
  }
  error = "minimizer must be isop, exact, espresso or auto";
  return false;
}

// The minimizer changes FSM/CntAG covers and therefore metrics.  Isop and
// Espresso ignore the Auto threshold, so it is hashed only under Auto: every
// equal-output spelling shares one key.
void hash_minimizer(Fnv1a64& h, const ExploreOptions& opt) {
  if (opt.minimize.algo == logic::MinimizerAlgo::Isop) return;
  h.str(kMinimizer);
  h.str(logic::minimizer_name(opt.minimize.algo));
  if (opt.minimize.algo == logic::MinimizerAlgo::Auto)
    h.u64(static_cast<std::uint64_t>(opt.minimize.heuristic_min_vars));
}

using O = ExploreOptions;

// The help lines spell out these defaults.
static_assert(tech::kDefaultMaxFanout == 12);
static_assert(logic::kDefaultHeuristicMinVars == 9);

// Constant-initialized: the table allocates nothing, so building it cannot
// change the heap layout of the first exploration that hashes its options.
constexpr ExploreFlag kTable[] = {
    {"max-fanout", "N", "buffering fanout limit, 2 or more (default 12)",
     // tech::insert_buffers rejects fanouts below 2.
     [](O& o, std::string_view v, std::string& e) {
       return parse_in_range(v, 2, INT32_MAX, o.max_fanout, e,
                             "max-fanout expects 2..2147483647");
     },
     [](Fnv1a64& h, const O& o) { h.u64(static_cast<std::uint64_t>(o.max_fanout)); }},
    {"max-fsm-states", "N", "FSM feasibility cap (default 1024)",
     [](O& o, std::string_view v, std::string& e) {
       return parse_in_range(v, 0, SIZE_MAX, o.max_fsm_states, e,
                             "max-fsm-states expects a number");
     },
     [](Fnv1a64& h, const O& o) { h.u64(o.max_fsm_states); }},
    {"no-fsm", "", "skip symbolic-FSM candidates", set_flag<&O::include_fsm, false>,
     [](Fnv1a64& h, const O& o) { h.u64(o.include_fsm ? 1 : 0); }},
    {kArchs, "a,b,...", "only these candidate architectures (registry names)",
     apply_archs, hash_archs},
    {"verify-front", "", "verify every Pareto point in the word simulator",
     set_flag<&O::verify_front, true>,
     [](Fnv1a64& h, const O& o) { if (o.verify_front) h.str("verify_front"); }},
    {kMinimizer, "M", "two-level minimizer: isop (default), exact, espresso, auto",
     apply_minimizer, hash_minimizer},
    {"espresso-threshold", "N", "auto uses espresso from N variables (1..24, default 9)",
     [](O& o, std::string_view v, std::string& e) {
       return parse_in_range(v, 1, 24, o.minimize.heuristic_min_vars, e,
                             "espresso-threshold expects 1..24");
     },
     // Hashed by `minimizer`, the only entry whose output it changes.
     [](Fnv1a64&, const O&) {}},
    {"compress-periodic", "", "explore whole-pass periodic traces on one period",
     set_flag<&O::compress_periodic, true>,
     [](Fnv1a64& h, const O& o) { if (o.compress_periodic) h.str("compress_periodic"); }},
};

}  // namespace

std::span<const ExploreFlag> explore_flags() { return kTable; }

const ExploreFlag* find_explore_flag(std::string_view name) {
  for (const ExploreFlag& f : explore_flags())
    if (f.name == name) return &f;
  return nullptr;
}

const ExploreFlag* explore_flag_arg(std::string_view arg) {
  return arg.starts_with("--") ? find_explore_flag(arg.substr(2)) : nullptr;
}

bool apply_explore_option(ExploreOptions& opt, std::string_view key,
                          std::string_view value, std::string& error) {
  const ExploreFlag* f = find_explore_flag(key);
  if (!f) {
    error = "unknown option '" + std::string(key) + "'";
    return false;
  }
  if (f->metavar.empty() != value.empty()) {
    error = "option '" + std::string(key) +
            (value.empty() ? "' requires a value" : "' takes no value");
    return false;
  }
  return f->apply(opt, value, error);
}

std::string explore_flags_usage() {
  constexpr std::size_t kHelpColumn = 23;
  std::string out;
  for (const ExploreFlag& f : explore_flags()) {
    std::string line = "  --" + std::string(f.name);
    if (!f.metavar.empty()) line.append(" ").append(f.metavar);
    if (line.size() >= kHelpColumn) {  // help goes on its own line
      out += line + '\n';
      line.clear();
    }
    line.resize(kHelpColumn, ' ');
    out.append(line).append(f.help) += '\n';
  }
  return out;
}

}  // namespace addm::core
