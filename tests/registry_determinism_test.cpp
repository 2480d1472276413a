// Determinism tests for the architecture-generator registry driver: the
// points explore_generators returns must be registry-ordered no matter what
// order the entries actually execute in, and batch reports must be
// byte-identical at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "core/batch_explorer.hpp"
#include "core/explorer.hpp"
#include "seq/workloads.hpp"

namespace addm::core {
namespace {

void expect_points_equal(const std::vector<DesignPoint>& a,
                         const std::vector<DesignPoint>& b,
                         const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].architecture, b[i].architecture) << context << " point " << i;
    EXPECT_EQ(a[i].feasible, b[i].feasible) << context << " point " << i;
    EXPECT_EQ(a[i].note, b[i].note) << context << " point " << i;
    EXPECT_EQ(a[i].metrics.area_units, b[i].metrics.area_units) << context << " " << i;
    EXPECT_EQ(a[i].metrics.delay_ns, b[i].metrics.delay_ns) << context << " " << i;
    EXPECT_EQ(a[i].metrics.clk_to_out_ns, b[i].metrics.clk_to_out_ns)
        << context << " " << i;
    EXPECT_EQ(a[i].metrics.reg_to_reg_ns, b[i].metrics.reg_to_reg_ns)
        << context << " " << i;
    EXPECT_EQ(a[i].metrics.cells, b[i].metrics.cells) << context << " " << i;
    EXPECT_EQ(a[i].metrics.flipflops, b[i].metrics.flipflops) << context << " " << i;
    EXPECT_EQ(a[i].metrics.buffers_added, b[i].metrics.buffers_added)
        << context << " " << i;
  }
}

TEST(RegistryDeterminism, ShuffledExecutionOrderYieldsRegistryOrder) {
  // Candidates are independent tasks: evaluating registry entries one by
  // one, in a shuffled order, must reproduce the driver's points slot for
  // slot — and the driver's output order must be the registry's.
  const auto trace = seq::incremental({8, 8});
  const ExploreOptions opt;
  const auto driver_points = explore_generators(trace, opt);

  const auto& registry = generator_registry();
  std::vector<std::size_t> applicable;
  for (std::size_t i = 0; i < registry.size(); ++i)
    if (registry[i].applicable(trace, opt)) applicable.push_back(i);
  ASSERT_EQ(driver_points.size(), applicable.size());

  std::vector<std::size_t> order(applicable.size());
  std::iota(order.begin(), order.end(), 0);
  std::mt19937 rng(42);
  for (int round = 0; round < 3; ++round) {
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<DesignPoint> points(applicable.size());
    for (std::size_t slot : order)
      points[slot] = registry[applicable[slot]].elaborate(trace, opt);
    expect_points_equal(driver_points, points, "shuffle round " + std::to_string(round));
    for (std::size_t slot = 0; slot < applicable.size(); ++slot)
      EXPECT_EQ(driver_points[slot].architecture, registry[applicable[slot]].name);
  }
}

TEST(RegistryDeterminism, ParetoAndFilterStableAcrossThreads) {
  // An archs-filtered batch: its points and their Pareto front are
  // identical at every thread count.
  const std::vector<seq::AddressTrace> traces = {seq::zigzag({8, 8}),
                                                 seq::incremental({8, 8})};
  BatchOptions opt;
  opt.threads = 1;
  opt.explore.archs = {"CntAG-flat", "FSM-binary", "SFM"};
  const BatchResult reference = BatchExplorer(opt).run(traces);
  ASSERT_EQ(reference.entries.size(), traces.size());
  EXPECT_EQ(reference.entries[0].points.size(), 3u);
  for (std::size_t threads : {2u, 8u}) {
    opt.threads = threads;
    const BatchResult result = BatchExplorer(opt).run(traces);
    ASSERT_EQ(result.entries.size(), traces.size());
    for (std::size_t t = 0; t < traces.size(); ++t) {
      const std::string context = traces[t].name() + " threads=" + std::to_string(threads);
      expect_points_equal(reference.entries[t].points, result.entries[t].points, context);
      EXPECT_EQ(reference.entries[t].pareto, result.entries[t].pareto) << context;
      EXPECT_EQ(pareto_front(result.entries[t].points), result.entries[t].pareto)
          << context;
    }
  }
}

TEST(RegistryDeterminism, BatchReportsIdenticalAcrossThreadMatrix) {
  // Thread count must not change a byte of either report.  (The CLI-level
  // matrix, cache directories included, is the arch_determinism ctest
  // entry.)
  const auto traces = seq::standard_suite({8, 8});
  std::string csv_ref, json_ref;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    BatchOptions opt;
    opt.threads = threads;
    BatchExplorer batch(opt);
    const BatchResult result = batch.run(traces);
    const std::string csv = batch_report_csv(result);
    const std::string json = batch_report_json(result);
    if (csv_ref.empty()) {
      csv_ref = csv;
      json_ref = json;
    } else {
      EXPECT_EQ(csv, csv_ref) << threads;
      EXPECT_EQ(json, json_ref) << threads;
    }
  }
}

TEST(RegistryDeterminism, EspressoMinimizerDeterministicAcrossThreadMatrix) {
  // FSM-heavy batch with the heuristic minimizer actually engaged: zigzag
  // traces exercise the biggest FSM covers, and a threshold of 1 routes
  // every minimize() call through espresso.  Reports must still be
  // byte-identical at every thread count.
  const std::vector<seq::AddressTrace> traces = {seq::zigzag({16, 16}),
                                                 seq::strided({16, 16}, 3),
                                                 seq::incremental({16, 16})};
  std::string csv_ref;
  for (std::size_t threads : {1u, 2u, 4u}) {
    BatchOptions opt;
    opt.threads = threads;
    opt.explore.minimize.algo = logic::MinimizerAlgo::Auto;
    opt.explore.minimize.heuristic_min_vars = 1;
    BatchExplorer batch(opt);
    const std::string csv = batch_report_csv(batch.run(traces));
    if (csv_ref.empty())
      csv_ref = csv;
    else
      EXPECT_EQ(csv, csv_ref) << threads;
  }
  EXPECT_FALSE(csv_ref.empty());
}

TEST(RegistryDeterminism, DegenerateTraceThrowsAtEveryThreadCount) {
  // Multiple entries fail for an empty-geometry trace; the driver must
  // surface the registry-first failure, so batch error strings (which
  // enter reports) are deterministic at every thread count.
  const seq::AddressTrace empty({4, 4}, {});
  const ExploreOptions opt;
  std::string first_error;
  for (const GeneratorEntry& e : generator_registry()) {
    try {
      e.elaborate(empty, opt);
    } catch (const std::exception& ex) {
      first_error = ex.what();
      break;
    }
  }
  ASSERT_FALSE(first_error.empty());
  try {
    explore_generators(empty, opt);
    FAIL() << "expected a throw";
  } catch (const std::exception& ex) {
    EXPECT_EQ(first_error, ex.what());
  }
  for (std::size_t threads : {1u, 4u}) {
    BatchOptions bo;
    bo.threads = threads;
    const BatchResult r = BatchExplorer(bo).run({empty, empty});
    for (const BatchEntry& entry : r.entries) EXPECT_EQ(entry.error, first_error) << threads;
  }
}

}  // namespace
}  // namespace addm::core
