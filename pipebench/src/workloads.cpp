// The three workloads.  Each sets up its inputs several times (setup_s is
// the median), then measures operations until the run's time is up, checks
// every output, and reports the shared end-to-end metric set.  With --trace
// the same inputs go through the traced pipeline instead.
#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/fingerprint.hpp"
#include "seq/trace_io.hpp"
#include "serve_util.hpp"

namespace pipebench {

using namespace addm;

namespace {

// Thread budgets.  The daemon's requests run serially (one pool worker
// each), so the two connections keep about two threads busy, like the
// batch workloads on a shared 4-core host.
constexpr std::size_t kThreads = 2;       // suite_cold / stream_periodic
constexpr std::size_t kServeThreads = 1;  // per served request

/// Runs `setup` at least 5 times, and more (up to 25) while the repetitions
/// total under half a second, keeping the last result; returns the median
/// set-up time.
template <typename F>
double timed_setup(F&& setup) {
  std::vector<double> t;
  double total = 0;
  for (int r = 0; r < 25 && (r < 5 || total < 0.5); ++r) {
    const auto t0 = Clock::now();
    setup(r);
    t.push_back(seconds_since(t0));
    total += t.back();
  }
  return median(t);
}

/// Per-geometry slots of suite_cold and serve_warm: two regular families
/// with seeded parameters, the irregular zigzag scan, and a doubled raster.
/// Families are fixed per slot because their costs differ by up to 10x.
const std::vector<Slot> kSuiteSlots = {{{Family::kDct}},
                                       {{Family::kBlock}},
                                       {{Family::kZigzag}},
                                       {{Family::kTranspose, Family::kIncremental}, true}};

core::ExploreOptions verify_options() {
  core::ExploreOptions o;
  o.verify_front = true;
  return o;
}

std::size_t total_length(const std::vector<seq::AddressTrace>& traces) {
  std::size_t n = 0;
  for (const auto& t : traces) n += t.length();
  return n;
}

}  // namespace

// ---------------------------------------------------------------------------
// suite_cold: fresh BatchExplorer per batch, --verify-front semantics.

void suite_cold(const RunConfig& cfg, Outcome& out, const std::string& host_json) {
  // Largest first, so the longest explorations start first in the pool.
  const std::vector<seq::ArrayGeometry> geoms = {{64, 64}, {64, 32}, {32, 32}, {32, 16},
                                                 {16, 16}, {16, 8},  {8, 8}};
  const core::ExploreOptions eo = verify_options();
  if (cfg.trace) {
    TracedInputs in;
    in.files = write_traces(cfg.work_dir / "suite", seeded_suite(geoms, kSuiteSlots, cfg.seed));
    in.explore = eo;
    in.periodic_tags.assign(in.files.size(), "");
    in.batch_repeats = 10;
    in.serve_requests = 60;
    run_traced(cfg, in, out, host_json);
    return;
  }

  std::vector<seq::AddressTrace> traces;
  EndToEnd e;
  e.setup_s = timed_setup([&](int) {
    traces = seeded_suite(geoms, kSuiteSlots, cfg.seed);
    core::generator_registry();  // built once per process, on first use
  });
  check_fingerprint_pin(out);
  e.traces_per_op = static_cast<double>(traces.size());
  e.accesses_per_op = static_cast<double>(total_length(traces));

  std::string first_report;
  const auto w0 = Clock::now();
  while (seconds_since(w0) < cfg.seconds) {
    const auto t0 = Clock::now();
    core::BatchOptions bo;
    bo.explore = eo;
    bo.threads = kThreads;
    core::BatchExplorer bx(bo);
    const core::BatchResult r = bx.run(traces);
    const std::string report = core::batch_report_csv(r);
    e.op_seconds.push_back(seconds_since(t0));
    for (const auto& entry : r.entries) {
      const std::string problem = entry_problem(entry, true, "");
      out.check(problem.empty(), problem);
    }
    if (first_report.empty()) first_report = report;
    if (report != first_report) out.fail("cold batch reports differ between batches");
  }
  e.window_s = seconds_since(w0);
  e.peak_rss_mb = peak_rss_mb();
  report_end_to_end(e, out);
}

// ---------------------------------------------------------------------------
// stream_periodic: TraceReader -> BatchExplorer (--compress-periodic
// --verify-front) -> JSON report, four ~1M-access files per iteration.

void stream_periodic(const RunConfig& cfg, Outcome& out, const std::string& host_json) {
  // One file per (geometry, family): regular periods whose exploration is
  // cheap, so parsing, fingerprinting and compression dominate.
  const std::vector<seq::ArrayGeometry> geoms = {{64, 32}, {64, 64}, {64, 32}, {64, 64}};
  const Family families[] = {Family::kDct, Family::kBlock, Family::kBlock, Family::kDct};
  constexpr std::size_t kAccesses = std::size_t{1} << 20;
  core::ExploreOptions eo = verify_options();
  eo.compress_periodic = true;

  std::vector<std::string> files;
  std::vector<std::string> tags;
  auto setup = [&](int) {
    files.clear();
    tags.clear();
    const fs::path dir = cfg.work_dir / "stream";
    fs::remove_all(dir);
    fs::create_directories(dir);
    Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + 3);
    std::set<std::uint64_t> seen;
    for (std::size_t f = 0; f < geoms.size(); ++f) {
      seq::AddressTrace period;
      do period = family_trace(geoms[f], families[f], rng);
      while (!seen.insert(core::trace_fingerprint(period)).second);
      const std::size_t p = period.length(), k = kAccesses / p;
      std::vector<std::uint32_t> all;
      all.reserve(k * p);
      for (std::size_t r = 0; r < k; ++r)
        all.insert(all.end(), period.linear().begin(), period.linear().end());
      const std::string name = period.name() + "_pass" + std::to_string(f);
      files.push_back((dir / (name + ".trace")).string());
      seq::write_trace_file(files.back(), seq::AddressTrace(geoms[f], std::move(all), name));
      tags.push_back("[periodic " + std::to_string(k) + "x" + std::to_string(p) + "]");
    }
  };

  if (cfg.trace) {
    setup(0);
    TracedInputs in;
    in.files = files;
    in.explore = eo;
    in.periodic_tags = tags;
    in.batch_repeats = 5;
    in.serve_requests = 6;
    in.serve_subset = 2;
    run_traced(cfg, in, out, host_json);
    return;
  }

  EndToEnd e;
  e.setup_s = timed_setup(setup);
  check_fingerprint_pin(out);
  e.traces_per_op = static_cast<double>(files.size());
  e.accesses_per_op = static_cast<double>(files.size() * kAccesses);

  std::string first_report;
  const auto w0 = Clock::now();
  while (seconds_since(w0) < cfg.seconds) {
    const auto t0 = Clock::now();
    const std::vector<seq::AddressTrace> traces = read_files(files);
    core::BatchOptions bo;
    bo.explore = eo;
    bo.threads = kThreads;
    core::BatchExplorer bx(bo);
    const core::BatchResult r = bx.run(traces);
    const std::string report = core::batch_report_json(r);
    e.op_seconds.push_back(seconds_since(t0));
    for (std::size_t i = 0; i < r.entries.size(); ++i) {
      const std::string problem = entry_problem(r.entries[i], true, tags[i]);
      out.check(problem.empty() && r.entries[i].trace_length == kAccesses, problem);
    }
    if (first_report.empty()) first_report = report;
    if (report != first_report) out.fail("stream reports differ between iterations");
  }
  e.window_s = seconds_since(w0);
  e.peak_rss_mb = peak_rss_mb();
  report_end_to_end(e, out);
}

// ---------------------------------------------------------------------------
// serve_warm: in-process daemon with a warm memo, a closed loop of two client
// connections (binary framing and JSON lines), every 20th request carrying a
// novel inline trace that misses the memo and reaches disk via the deferred
// flush.

namespace {

constexpr std::size_t kSubset = 6;  // trace files per request

/// One request of the closed loop, compact and preallocated so that peak RSS
/// does not depend on how many requests a run completes.
struct Sample {
  std::array<std::uint8_t, kSubset> files{};
  std::int32_t novel = -1;
  bool ok = false;
  bool timed = false;  ///< false for warm-up requests (checked, not timed)
  double seconds = 0;
  std::uint64_t hash = 0;
};
constexpr std::size_t kMaxSamples = 100000;  // per connection

}  // namespace

void serve_warm(const RunConfig& cfg, Outcome& out, const std::string& host_json) {
  const std::vector<seq::ArrayGeometry> geoms = {{32, 32}, {64, 32}, {32, 64}, {64, 64}};
  constexpr std::size_t kWarmupRequests = 20;  // per connection, checked but not timed
  const core::ExploreOptions eo = verify_options();
  const auto options = option_pairs(eo);

  const fs::path dir = cfg.work_dir / "serve";
  std::vector<std::string> files;
  auto write_files = [&] {
    fs::remove_all(dir);
    files = write_traces(dir / "traces", seeded_suite(geoms, kSuiteSlots, cfg.seed));
  };
  if (cfg.trace) {
    write_files();
    TracedInputs in;
    in.files = files;
    in.explore = eo;
    in.periodic_tags.assign(files.size(), "");
    in.batch_repeats = 50;
    in.serve_requests = 200;
    in.serve_subset = kSubset;
    in.threads = kServeThreads;
    run_traced(cfg, in, out, host_json);
    return;
  }

  std::unique_ptr<LocalServer> server;
  auto setup = [&](int r) {
    server.reset();
    write_files();
    serve::ServiceOptions so;
    so.threads = kServeThreads;
    so.cache_dir = (dir / "cache").string();
    server = std::make_unique<LocalServer>(so, "serve" + std::to_string(r) + ".sock", 2);
    RequestSpec all;
    for (std::size_t f = 0; f < files.size(); ++f) all.files.push_back(f);
    serve::ServeClient c = server->connect(false);
    serve::ServeClient::Result res;
    std::string terr;
    if (!c.explore(make_request(all, files, options, cfg.seed), res, terr) || !res.ok)
      throw std::runtime_error("memo warm-up request failed: " + terr + res.error.message);
  };

  EndToEnd e;
  e.setup_s = timed_setup(setup);
  check_fingerprint_pin(out);

  // Closed loop: each connection sends its next request when the reply to
  // the previous one has arrived.
  std::vector<Sample> samples[2] = {std::vector<Sample>(kMaxSamples),
                                    std::vector<Sample>(kMaxSamples)};
  std::size_t count[2] = {0, 0};
  std::string first_error[2];
  std::atomic<bool> measuring{false};
  std::atomic<int> warmed{0};
  Clock::time_point w0;
  std::mutex w0_mu;
  auto drive = [&](int id) {
    serve::ServeClient c = server->connect(id == 1);
    Rng rng(cfg.seed * 0x2545f4914f6cdd1dull + static_cast<std::uint64_t>(id));
    for (std::size_t q = 0; q < kMaxSamples; ++q) {
      if (q == kWarmupRequests) {
        // Both connections start timing together, after both warmed up.
        if (warmed.fetch_add(1) == 1) {
          std::lock_guard<std::mutex> lk(w0_mu);
          w0 = Clock::now();
          measuring = true;
        }
        while (!measuring) std::this_thread::yield();
      }
      if (measuring) {
        std::lock_guard<std::mutex> lk(w0_mu);
        if (seconds_since(w0) >= cfg.seconds) break;
      }
      RequestSpec spec;
      spec.files = pick_subset(rng, files.size(), kSubset);
      spec.json = id == 1;
      if (q % 20 == 19) spec.novel = static_cast<long long>(q / 20 * 2 + static_cast<std::size_t>(id));
      const serve::ExploreRequest req = make_request(spec, files, options, cfg.seed);
      serve::ServeClient::Result res;
      std::string error;
      const auto t0 = Clock::now();
      const bool ok = c.explore(req, res, error);
      Sample& s = samples[id][q];
      s.seconds = seconds_since(t0);
      s.timed = q >= kWarmupRequests;
      s.ok = ok && res.ok;
      if (!s.ok && first_error[id].empty())
        first_error[id] = ok ? res.error.code + ": " + res.error.message : error;
      s.hash = hash_bytes(res.body);
      for (std::size_t k = 0; k < kSubset; ++k) s.files[k] = static_cast<std::uint8_t>(spec.files[k]);
      s.novel = static_cast<std::int32_t>(spec.novel);
      count[id] = q + 1;
    }
  };
  std::string thread_error[2];
  auto client = [&](int id) {
    try {
      drive(id);
    } catch (const std::exception& ex) {
      thread_error[id] = ex.what();
      measuring = true;  // never leave the other connection waiting
    }
  };
  {
    std::thread a(client, 0), b(client, 1);
    a.join();
    b.join();
  }
  for (const std::string& err : thread_error)
    if (!err.empty()) throw std::runtime_error("client connection: " + err);
  e.window_s = seconds_since(w0);
  e.peak_rss_mb = peak_rss_mb();
  server.reset();

  // Checks: every reply ok and byte-equal (by hash) to the offline render of
  // the same trace list.
  const std::vector<seq::AddressTrace> file_traces = read_files(files);
  const auto file_entries = offline_entries(file_traces, eo, kThreads);
  std::int32_t max_novel = -1;
  for (int id = 0; id < 2; ++id)
    for (std::size_t q = 0; q < count[id]; ++q) max_novel = std::max(max_novel, samples[id][q].novel);
  std::vector<seq::AddressTrace> novel;
  for (std::int32_t k = 0; k <= max_novel; ++k)
    novel.push_back(novel_trace(cfg.seed, static_cast<std::uint64_t>(k)));
  const auto novel_entries = offline_entries(novel, eo, kThreads);
  double traces = 0, accesses = 0;
  for (int id = 0; id < 2; ++id)
    for (std::size_t q = 0; q < count[id]; ++q) {
      const Sample& s = samples[id][q];
      RequestSpec spec;
      spec.files.assign(s.files.begin(), s.files.end());
      spec.novel = s.novel;
      spec.json = id == 1;
      out.check(s.ok && hash_bytes(offline_body(spec, file_entries, novel_entries)) == s.hash,
                s.ok ? "served body differs from the offline render"
                     : "request failed: " + first_error[id]);
      if (!s.timed) continue;
      e.op_seconds.push_back(s.seconds);
      for (std::size_t f : spec.files) {
        traces += 1;
        accesses += static_cast<double>(file_traces[f].length());
      }
      if (spec.novel >= 0) {
        traces += 1;
        accesses += static_cast<double>(novel[static_cast<std::size_t>(spec.novel)].length());
      }
    }
  const double ops = static_cast<double>(e.op_seconds.size());
  e.traces_per_op = traces / ops;
  e.accesses_per_op = accesses / ops;
  e.rate_from_median = false;
  report_end_to_end(e, out);
}

}  // namespace pipebench
