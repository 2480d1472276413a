#include "serve/service.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <utility>

#include "core/eval_cache.hpp"
#include "seq/trace_io.hpp"
#include "seq/workloads.hpp"

namespace addm::serve {

namespace {

core::BatchOptions batch_options(const ServiceOptions& s) {
  core::BatchOptions b;
  b.threads = s.threads;
  b.memoize = true;
  b.cache_dir = s.cache_dir;
  b.cache_budget_bytes = s.cache_budget_bytes;
  return b;
}

// A served suite gets the same ceiling as an inline trace: no geometry may
// hold more cells than one maximum-size frame carries as 32-bit addresses.
static_assert(seq::kMaxSuiteCells == kMaxFramePayload / 4);

std::string maintenance_summary(const core::EvalCacheDir::MaintenanceStats& m) {
  std::string out;
  out += std::to_string(m.kept) + " kept (" + std::to_string(m.bytes_kept) +
         " bytes), " + std::to_string(m.dropped) + " dropped, " +
         std::to_string(m.adopted) + " adopted, " + std::to_string(m.evicted) +
         " evicted, " + std::to_string(m.files_removed) + " files removed\n";
  return out;
}

}  // namespace

std::size_t explore_trace_count(const ExploreRequest& req) {
  return req.suite_scales * seq::kSuiteTracesPerGeometry + req.traces.size();
}

std::vector<seq::AddressTrace> explore_traces(const ExploreRequest& req,
                                              std::size_t begin, std::size_t end) {
  std::vector<seq::AddressTrace> suite;
  if (req.suite_scales > 0) suite = seq::scaled_suite(req.suite_base, req.suite_scales);
  end = std::min(end, suite.size() + req.traces.size());
  std::vector<seq::AddressTrace> traces;
  for (std::size_t i = begin; i < end && i < suite.size(); ++i)
    traces.push_back(std::move(suite[i]));
  for (std::size_t i = std::max(begin, suite.size()); i < end; ++i) {
    const TraceSource& src = req.traces[i - suite.size()];
    if (src.kind == TraceSource::Kind::kPath) {
      traces.push_back(seq::read_trace_file(src.name));
      if (traces.back().name().empty())
        traces.back().set_name(std::filesystem::path(src.name).stem().string());
    } else {
      traces.push_back(seq::read_trace_string(src.data));
      if (traces.back().name().empty()) traces.back().set_name(src.name);
    }
  }
  return traces;
}

std::string render_report(const core::BatchResult& result, std::string_view format) {
  return format == "json" ? core::batch_report_json(result)
                          : core::batch_report_csv(result);
}

ExploreService::ExploreService(ServiceOptions opt)
    : opt_(std::move(opt)), explorer_(batch_options(opt_)) {}

ExploreService::ExploreOutcome ExploreService::explore(
    const ExploreRequest& req) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  ExploreOutcome out;

  core::ExploreOptions explore_opt;
  if (!build_explore_options(req, explore_opt, out.error.message)) {
    out.error.code = "bad-request";
    return out;
  }

  if (const auto g = seq::oversized_suite_geometry(req.suite_base, req.suite_scales,
                                                   seq::kMaxSuiteCells)) {
    out.error.code = "io";
    out.error.message = "suite geometry " + std::to_string(g->width) + "x" +
                        std::to_string(g->height) + " is too large (at most " +
                        std::to_string(seq::kMaxSuiteCells) +
                        " cells per served trace)";
    return out;
  }
  std::vector<seq::AddressTrace> traces;
  try {
    traces = explore_traces(req, 0, explore_trace_count(req));
  } catch (const std::exception& e) {
    out.error.code = "io";
    out.error.message = e.what();
    return out;
  }

  core::BatchResult result;
  try {
    result = explorer_.run(traces, explore_opt);
  } catch (const std::exception& e) {
    out.error.code = "explore-failed";
    out.error.message = e.what();
    return out;
  }

  out.report = render_report(result, req.format);
  out.summary.traces = result.traces;
  out.summary.evaluations = result.evaluations;
  out.summary.cache_hits = result.cache_hits;
  out.summary.disk_hits = result.disk_hits;
  for (const auto& e : result.entries)
    if (!e.error.empty()) ++out.summary.errors;
  out.ok = true;

  // Flush policy: opportunistic, after replying would be nicer latency-wise
  // but flushing here keeps the "reply sent => results durable-eligible"
  // ordering simple; the flush itself is bounded by pending volume.
  if (opt_.flush_entries > 0 && explorer_.pending_flush() >= opt_.flush_entries)
    explorer_.flush_disk();
  return out;
}

core::BatchExplorer::FlushStats ExploreService::flush() {
  return explorer_.flush_disk();
}

ExploreService::AdminOutcome ExploreService::admin(std::string_view command) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  AdminOutcome out;

  const std::size_t sp = std::min(command.find(' '), command.size());
  const std::string_view verb = command.substr(0, sp);
  const std::string_view args =
      sp < command.size() ? command.substr(sp + 1) : std::string_view{};

  auto need_cache_dir = [&]() {
    if (!opt_.cache_dir.empty()) return true;
    out.error.code = "bad-request";
    out.error.message = "daemon runs without --cache-dir";
    return false;
  };

  if (verb == "flush") {
    const auto stats = flush();
    out.output = "flushed " + std::to_string(stats.stored) + " entries, " +
                 std::to_string(stats.evicted) + " evicted\n";
    out.ok = true;
    return out;
  }

  if (verb == "shutdown") {
    out.output = "shutting down\n";
    out.ok = true;
    out.shutdown = true;
    return out;
  }

  if (verb == "stats") {
    if (!need_cache_dir()) return out;
    // A stats probe should see pending work, so flush first — it is an
    // admin request, maintenance-grade latency is fine.  stats() only reads,
    // so it needs no lock against a concurrent flush.
    explorer_.flush_disk();
    out.output = core::eval_cache_stats_json(core::EvalCacheDir(opt_.cache_dir).stats());
    out.ok = true;
    return out;
  }

  if (verb == "compact" || verb == "prune") {
    if (!need_cache_dir()) return out;
    std::uint64_t max_entries = UINT64_MAX;
    std::uint64_t max_bytes = UINT64_MAX;
    if (verb == "prune") {
      const std::size_t sp2 = args.find(' ');
      std::uint64_t e = 0, b = 0;
      if (sp2 == std::string_view::npos || !seq::parse_u64(args.substr(0, sp2), e) ||
          !seq::parse_u64(args.substr(sp2 + 1), b) || (e == 0 && b == 0)) {
        out.error.code = "bad-request";
        out.error.message =
            "prune expects MAX_ENTRIES MAX_BYTES (0 = unlimited, not both)";
        return out;
      }
      if (e != 0) max_entries = e;
      if (b != 0) max_bytes = b;
    } else if (!args.empty()) {
      out.error.code = "bad-request";
      out.error.message = "compact takes no arguments";
      return out;
    }
    // The explorer flushes, then maintains, behind its writer lock: pending
    // entries are persisted first so maintenance sees them, and no flush
    // can start while the directory is rewritten ("no concurrent writer").
    const core::EvalCacheDir::MaintenanceStats m =
        explorer_.prune_disk(max_entries, max_bytes);
    if (!m.ok) {
      out.error.code = "maintenance-failed";
      out.error.message = "cache maintenance failed on " + opt_.cache_dir;
      return out;
    }
    out.output = maintenance_summary(m);
    out.ok = true;
    return out;
  }

  out.error.code = "bad-request";
  out.error.message = "unknown admin command '" + std::string(verb) +
                      "' (stats, compact, prune, flush, shutdown)";
  return out;
}

}  // namespace addm::serve
