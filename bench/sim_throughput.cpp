// Simulator throughput: scalar sim::Simulator vs the levelized 64-lane
// sim::WordSimulator on address-generator netlists from the scaled suite.
// Items/sec are lane-cycles (one net-state update of one stimulus stream),
// so the reported rates are directly comparable: the word simulator should
// exceed the scalar one by well over 8x on any suite netlist.  BM_VerifyCandidate
// times one --verify-front replay (core/verify) in wall-clock time, with
// trace cycles as items.  These are host-performance numbers, not paper
// quantities.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <variant>

#include "core/cntag.hpp"
#include "core/explorer.hpp"
#include "core/metrics.hpp"
#include "core/verify.hpp"
#include "netlist/netlist.hpp"
#include "seq/workloads.hpp"
#include "sim/simulator.hpp"
#include "sim/word_simulator.hpp"

namespace {

using namespace addm;

/// A representative replay netlist: CntAG with flat decoders over a scaled
/// incremental trace — the largest-fanout generator family in the suite.
const netlist::Netlist& cntag_netlist(std::size_t dim) {
  static std::map<std::size_t, netlist::Netlist> cache;
  auto it = cache.find(dim);
  if (it == cache.end()) {
    const auto trace = seq::incremental({dim, dim});
    it = cache.emplace(dim, core::elaborate_cntag(trace, {})).first;
  }
  return it->second;
}

void drive_replay(sim::Simulator& s) {
  s.set("reset", true);
  s.set("next", false);
  s.step();
  s.set("reset", false);
  s.set("next", true);
}

void drive_replay(sim::WordSimulator& w) {
  w.set_all("reset", true);
  w.set_all("next", false);
  w.step();
  w.set_all("reset", false);
  w.set_all("next", true);
}

void BM_ScalarSim(benchmark::State& state) {
  const netlist::Netlist& nl = cntag_netlist(static_cast<std::size_t>(state.range(0)));
  sim::Simulator s(nl);
  s.enable_toggle_counting();
  drive_replay(s);
  std::int64_t cycles = 0;
  for (auto _ : state) {
    s.run(256);
    cycles += 256;
  }
  benchmark::DoNotOptimize(s.toggles().data());
  state.SetItemsProcessed(cycles);  // one lane-cycle per cycle
}
BENCHMARK(BM_ScalarSim)->Arg(16)->Arg(32)->Arg(64);

void BM_WordSim(benchmark::State& state) {
  const netlist::Netlist& nl = cntag_netlist(static_cast<std::size_t>(state.range(0)));
  sim::WordSimulator w(nl);
  w.enable_toggle_counting();
  drive_replay(w);
  std::int64_t cycles = 0;
  for (auto _ : state) {
    w.run(256);
    cycles += 256;
  }
  benchmark::DoNotOptimize(w.toggles().data());
  // 64 independent stimulus streams advance per step.
  state.SetItemsProcessed(cycles *
                          static_cast<std::int64_t>(sim::WordSimulator::kLanes));
}
BENCHMARK(BM_WordSim)->Arg(16)->Arg(32)->Arg(64);

void BM_VerifyCandidate(benchmark::State& state) {
  // The scaled suite's 64x64 zigzag trace and its CntAG-predecoded front
  // point, as the explorer scores and verifies it.
  const auto trace = seq::zigzag({64, 64});
  const core::ExploreOptions opt;
  core::BuildResult built = std::string("not in the registry");
  for (const core::GeneratorEntry& e : core::generator_registry())
    if (e.name == "CntAG-predecoded") built = e.build(trace, opt);
  core::Candidate* c = std::get_if<core::Candidate>(&built);
  if (!c) throw std::runtime_error("CntAG-predecoded: " + std::get<std::string>(built));
  core::prepare_scored_netlist(c->netlist, opt.max_fanout);
  for (auto _ : state) {
    auto err = core::verify_candidate(*c, trace);
    if (err) throw std::runtime_error(*err);
    benchmark::DoNotOptimize(err);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.length()));
}
BENCHMARK(BM_VerifyCandidate)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
