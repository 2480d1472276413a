// Tests for the --verify-front exploration stage (core/verify.hpp): Pareto
// points get deterministic verification verdicts appended to their notes,
// non-front points are untouched, failures are reported (not thrown), every
// scored (buffered) netlist replays its trace, and the options fingerprint
// stays pinned for the default options.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <variant>
#include <vector>

#include "core/batch_explorer.hpp"
#include "core/explorer.hpp"
#include "core/fingerprint.hpp"
#include "core/metrics.hpp"
#include "core/verify.hpp"
#include "netlist/builder.hpp"
#include "seq/workloads.hpp"

namespace addm::core {
namespace {

TEST(VerifyFront, AnnotatesOnlyParetoPoints) {
  const auto trace = seq::block_raster({8, 8}, 4, 4);
  ExploreOptions off;
  ExploreOptions on;
  on.verify_front = true;

  const auto base = explore_generators(trace, off);
  const auto verified = explore_generators(trace, on);
  ASSERT_EQ(base.size(), verified.size());

  const auto front = pareto_front(base);
  ASSERT_FALSE(front.empty());
  const std::set<std::size_t> on_front(front.begin(), front.end());
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (on_front.count(i)) {
      EXPECT_EQ(verified[i].note.rfind(base[i].note, 0), 0u)
          << verified[i].architecture << ": verdict must append, not rewrite";
      EXPECT_NE(verified[i].note.find("[verified:"), std::string::npos)
          << verified[i].architecture << ": " << verified[i].note;
      EXPECT_EQ(verified[i].note.find("FAILED"), std::string::npos)
          << verified[i].architecture << ": " << verified[i].note;
    } else {
      EXPECT_EQ(verified[i].note, base[i].note) << verified[i].architecture;
    }
  }
}

TEST(VerifyFront, EveryScoredNetlistMatchesItsTrace) {
  // Registry-wide, not just the front: every feasible candidate of the
  // stock suite at three geometries is taken through measure_netlist (the
  // netlist the explorer scores, buffers included) and replayed against its
  // trace.  Cross-checking against explore_generators pins that the
  // replayed netlist is the scored one.
  const ExploreOptions opt;
  std::size_t checked = 0;
  for (const seq::ArrayGeometry g : {seq::ArrayGeometry{8, 8}, seq::ArrayGeometry{16, 16},
                                     seq::ArrayGeometry{32, 32}}) {
    for (const seq::AddressTrace& trace : seq::standard_suite(g)) {
      const std::vector<DesignPoint> points = explore_generators(trace, opt);
      std::size_t slot = 0;
      for (const GeneratorEntry& e : generator_registry()) {
        if (!e.applicable(trace, opt)) continue;
        ASSERT_LT(slot, points.size()) << trace.name();
        const DesignPoint& scored = points[slot++];
        BuildResult built = e.build(trace, opt);
        Candidate* c = std::get_if<Candidate>(&built);
        ASSERT_EQ(c != nullptr, scored.feasible) << trace.name() << " " << e.name;
        if (!c) continue;
        const GeneratorMetrics m = measure_netlist(c->netlist, opt.library, opt.max_fanout);
        EXPECT_EQ(m.area_units, scored.metrics.area_units) << trace.name() << " " << e.name;
        EXPECT_EQ(m.buffers_added, scored.metrics.buffers_added)
            << trace.name() << " " << e.name;
        const auto err = verify_candidate(*c, trace);
        EXPECT_FALSE(err.has_value())
            << trace.name() << " " << e.name << ": " << err.value_or("");
        ++checked;
      }
      EXPECT_EQ(slot, points.size()) << trace.name();
    }
  }
  // 201 of the 27 traces x 9 candidates are feasible; a drop means some
  // scored netlists went unchecked.
  EXPECT_EQ(checked, 201u);
}

TEST(VerifyFront, ReportsMismatchWithCycleDiagnostics) {
  // A "generator" whose select lines are stuck at line 0: correct for the
  // first access of a raster trace, wrong as soon as the address moves.
  Candidate c;
  netlist::NetlistBuilder b(c.netlist);
  b.input("reset");
  b.input("next");
  const std::vector<netlist::NetId> stuck = {netlist::kConst1, netlist::kConst0,
                                             netlist::kConst0, netlist::kConst0};
  b.output_bus("rs", stuck);
  b.output_bus("cs", stuck);

  const auto trace = seq::block_raster({4, 4}, 2, 2);
  const auto err = verify_candidate(c, trace);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("cycle"), std::string::npos) << *err;

  // A missing bus is its own diagnostic, not a crash.
  Candidate no_bus = c;
  no_bus.row_bus = "zz";
  const auto err2 = verify_candidate(no_bus, trace);
  ASSERT_TRUE(err2.has_value());
  EXPECT_NE(err2->find("no output bus"), std::string::npos) << *err2;
}

TEST(VerifyFront, FingerprintPinnedWhenDisabledDistinctWhenEnabled) {
  const ExploreOptions def;
  ExploreOptions off;
  off.verify_front = false;
  ExploreOptions on;
  on.verify_front = true;
  EXPECT_EQ(options_fingerprint(def), options_fingerprint(off));
  EXPECT_NE(options_fingerprint(def), options_fingerprint(on));
}

TEST(VerifyFront, BatchReportDeterministicAcrossThreads) {
  const auto traces = seq::scaled_suite({8, 8}, 1);

  BatchOptions serial;
  serial.threads = 1;
  serial.explore.verify_front = true;
  BatchOptions threaded;
  threaded.threads = 4;
  threaded.explore.verify_front = true;

  BatchExplorer a(serial);
  BatchExplorer b(threaded);
  const std::string ra = batch_report_csv(a.run(traces));
  const std::string rb = batch_report_csv(b.run(traces));
  EXPECT_EQ(ra, rb);
  EXPECT_NE(ra.find("[verified:"), std::string::npos);
  EXPECT_EQ(ra.find("FAILED"), std::string::npos);
}

}  // namespace
}  // namespace addm::core
