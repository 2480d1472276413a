// The exploration-option table: the one definition of every ExploreOptions
// knob a user can set.
//
// Each entry's name is both the command-line flag (`--<name>`) of
// addm_explore and addm_client and the key of the serve protocol's binary
// `option` directive and JSON `options` member.  The table drives all four
// surfaces and options_fingerprint, so an option is added, validated, hashed
// and documented in exactly one place.
//
// Rule for new entries: `hash` feeds nothing at the option's default value,
// so default-options fingerprints (and every cache directory keyed on them)
// stay valid.  The first three entries predate the rule and hash
// unconditionally; their bytes are part of the pinned fingerprints.  Table
// order is hash order, so entries are only ever appended.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "core/explorer.hpp"
#include "core/fingerprint.hpp"

namespace addm::core {

/// One exploration option.
struct ExploreFlag {
  std::string_view name;     ///< CLI flag without "--"; also the wire key
  std::string_view metavar;  ///< value placeholder in usage; empty for a flag
  std::string_view help;     ///< one usage line
  /// Parses `value` onto `opt`; false with `error` (starting with `name`)
  /// when it is out of range.  Flags are called with an empty value.
  bool (*apply)(ExploreOptions& opt, std::string_view value, std::string& error);
  /// Feeds the option's contribution to options_fingerprint.
  void (*hash)(Fnv1a64& h, const ExploreOptions& opt);
};

/// The table, in fingerprint order.
std::span<const ExploreFlag> explore_flags();

/// The entry named `name` (without "--"), or nullptr.
const ExploreFlag* find_explore_flag(std::string_view name);

/// The entry a command-line argument `--<name>` selects, or nullptr.
const ExploreFlag* explore_flag_arg(std::string_view arg);

/// Applies one key/value onto `opt`.  Returns false with `error` set on an
/// unknown key, a value given to a flag, a missing value, or a value the
/// entry rejects.
bool apply_explore_option(ExploreOptions& opt, std::string_view key,
                          std::string_view value, std::string& error);

/// The table's usage lines, one "  --<name> METAVAR   help" line per entry.
std::string explore_flags_usage();

}  // namespace addm::core
