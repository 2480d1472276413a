// Tests for the memoization fingerprints: stability, name-independence, and
// sensitivity to every field that changes exploration results.
#include <gtest/gtest.h>

#include "core/fingerprint.hpp"
#include "seq/workloads.hpp"

namespace addm::core {
namespace {

seq::AddressTrace named(const seq::AddressTrace& t, const std::string& name) {
  seq::AddressTrace copy = t;
  copy.set_name(name);
  return copy;
}

TEST(Fingerprint, TraceHashIgnoresName) {
  const auto t = seq::transpose_read({8, 8});
  EXPECT_EQ(trace_fingerprint(t), trace_fingerprint(named(t, "other")));
}

TEST(Fingerprint, TraceHashSeesAddressesAndGeometry) {
  const auto a = seq::transpose_read({8, 8});
  const auto b = seq::incremental({8, 8});
  EXPECT_NE(trace_fingerprint(a), trace_fingerprint(b));
  // Same linear sequence, different geometry: incremental 4x8 vs 8x4.
  const auto g1 = seq::incremental({4, 8});
  const auto g2 = seq::incremental({8, 4});
  EXPECT_EQ(g1.linear(), g2.linear());
  EXPECT_NE(trace_fingerprint(g1), trace_fingerprint(g2));
}

TEST(Fingerprint, TraceHashStableAcrossRuns) {
  // Pinned value: the cache key format is part of the report (trace_hash
  // column), so accidental changes should fail a test.
  const auto t = seq::incremental({4, 4});
  EXPECT_EQ(trace_fingerprint(t), trace_fingerprint(seq::incremental({4, 4})));
  const std::uint64_t once = trace_fingerprint(t);
  EXPECT_NE(once, 0u);
}

TEST(Fingerprint, PinnedValuesForCacheCompatibility) {
  // Persisted-cache compatibility across code changes: these exact values
  // were produced by the pre-registry-refactor explorer.  If either
  // changes, every existing cache directory silently goes cold — that must
  // be a deliberate kOptionsFingerprintSeed bump, never an accident.
  EXPECT_EQ(options_fingerprint(ExploreOptions{}), 0x80f73374c170bfacull);
  EXPECT_EQ(trace_fingerprint(seq::incremental({8, 8})), 0x0484d9da654efdc5ull);
}

TEST(Fingerprint, PinnedNonDefaultValuesForCacheCompatibility) {
  // One non-default value per exploration option.  The default pin above
  // cannot see a reordering of the per-option bytes; these can, so a change
  // to how options hash cannot silently orphan non-default cache
  // directories.
  auto with = [](auto set) {
    ExploreOptions o;
    set(o);
    return options_fingerprint(o);
  };
  EXPECT_EQ(with([](ExploreOptions& o) { o.max_fanout = 5; }), 0xb370d63a17491dc5ull);
  EXPECT_EQ(with([](ExploreOptions& o) { o.max_fsm_states = 77; }), 0x58baaada666d680dull);
  EXPECT_EQ(with([](ExploreOptions& o) { o.include_fsm = false; }), 0x2057e7b02822331dull);
  EXPECT_EQ(with([](ExploreOptions& o) { o.archs = {"SRAG", "CntAG-flat"}; }),
            0xf89e13d5edec2f46ull);
  EXPECT_EQ(with([](ExploreOptions& o) { o.verify_front = true; }), 0xd2c6604bc2782ae1ull);
  EXPECT_EQ(with([](ExploreOptions& o) { o.minimize.algo = logic::MinimizerAlgo::Espresso; }),
            0x54f6e5d11ac258afull);
  EXPECT_EQ(with([](ExploreOptions& o) {
              o.minimize.algo = logic::MinimizerAlgo::Auto;
              o.minimize.heuristic_min_vars = 7;
            }),
            0xcbee6cf1d92f24c3ull);
  EXPECT_EQ(with([](ExploreOptions& o) { o.compress_periodic = true; }), 0xa407e779f54fd4f5ull);
}

TEST(Fingerprint, ArchsSubsetsGetDistinctCanonicalKeys) {
  const ExploreOptions base;
  const std::uint64_t full = options_fingerprint(base);

  ExploreOptions srag = base;
  srag.archs = {"SRAG"};
  EXPECT_NE(options_fingerprint(srag), full);

  ExploreOptions pair = base;
  pair.archs = {"SRAG", "SFM"};
  EXPECT_NE(options_fingerprint(pair), full);
  EXPECT_NE(options_fingerprint(pair), options_fingerprint(srag));

  // Canonicalization: order and duplicates don't matter, so equivalent
  // subsets (identical output) share one cache key.
  ExploreOptions swapped = base;
  swapped.archs = {"SFM", "SRAG", "SFM"};
  EXPECT_EQ(options_fingerprint(swapped), options_fingerprint(pair));

  // A non-empty filter that selects nothing still differs from "no filter".
  ExploreOptions unknown = base;
  unknown.archs = {"no-such-architecture"};
  EXPECT_NE(options_fingerprint(unknown), full);

  // ... but a filter spelling out the whole registry produces the same
  // output as no filter, so it must collapse to the same key and stay warm
  // against a default-run cache.
  ExploreOptions everything = base;
  everything.archs = generator_names();
  EXPECT_EQ(options_fingerprint(everything), full);
}

TEST(Fingerprint, MinimizerHashedOnlyWhenNonDefault) {
  // The verify_front pattern: the default (Isop) hashes nothing, keeping
  // pre-dispatcher cache directories warm; non-default selections change
  // covers and must get their own keys.
  const ExploreOptions base;
  const std::uint64_t h0 = options_fingerprint(base);

  // Isop ignores the Auto threshold, so every Isop spelling shares the
  // pinned default key.
  ExploreOptions isop_tuned = base;
  isop_tuned.minimize.heuristic_min_vars = 3;
  EXPECT_EQ(options_fingerprint(isop_tuned), h0);

  ExploreOptions esp = base;
  esp.minimize.algo = logic::MinimizerAlgo::Espresso;
  EXPECT_NE(options_fingerprint(esp), h0);

  ExploreOptions exact = base;
  exact.minimize.algo = logic::MinimizerAlgo::Exact;
  EXPECT_NE(options_fingerprint(exact), h0);
  EXPECT_NE(options_fingerprint(exact), options_fingerprint(esp));

  // Espresso-always ignores the threshold too: equal output, equal key.
  ExploreOptions esp_tuned = esp;
  esp_tuned.minimize.heuristic_min_vars = 3;
  EXPECT_EQ(options_fingerprint(esp_tuned), options_fingerprint(esp));

  // Auto's output depends on the threshold, so the threshold is hashed.
  ExploreOptions auto_a = base;
  auto_a.minimize.algo = logic::MinimizerAlgo::Auto;
  ExploreOptions auto_b = auto_a;
  auto_b.minimize.heuristic_min_vars = 3;
  EXPECT_NE(options_fingerprint(auto_a), h0);
  EXPECT_NE(options_fingerprint(auto_a), options_fingerprint(esp));
  EXPECT_NE(options_fingerprint(auto_a), options_fingerprint(auto_b));
}

TEST(Fingerprint, CompressPeriodicHashedOnlyWhenEnabled) {
  // Same pattern as verify_front: periodic traces explore differently under
  // compression (period-trace metrics, annotated notes), so the flag needs
  // its own cache keys — but the default hashes nothing, keeping existing
  // cache directories warm.
  const ExploreOptions base;
  ExploreOptions on = base;
  on.compress_periodic = true;
  EXPECT_NE(options_fingerprint(on), options_fingerprint(base));

  ExploreOptions on_verify = on;
  on_verify.verify_front = true;
  EXPECT_NE(options_fingerprint(on_verify), options_fingerprint(on));
}

TEST(Fingerprint, OptionsHashSeesEveryExplorationField) {
  const ExploreOptions base;
  const std::uint64_t h0 = options_fingerprint(base);

  ExploreOptions o = base;
  o.max_fanout = base.max_fanout + 1;
  EXPECT_NE(options_fingerprint(o), h0);

  o = base;
  o.max_fsm_states = 7;
  EXPECT_NE(options_fingerprint(o), h0);

  o = base;
  o.include_fsm = false;
  EXPECT_NE(options_fingerprint(o), h0);

  o = base;
  o.library.wire_delay_per_fanout += 0.001;
  EXPECT_NE(options_fingerprint(o), h0);

  o = base;
  o.library.params(netlist::CellType::Nand2).area += 1.0;
  EXPECT_NE(options_fingerprint(o), h0);

  EXPECT_EQ(options_fingerprint(base), h0);
}

}  // namespace
}  // namespace addm::core
