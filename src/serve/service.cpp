#include "serve/service.hpp"

#include <exception>
#include <filesystem>
#include <utility>
#include <vector>

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
  b.defer_disk_flush = true;
  return b;
}

std::string maintenance_summary(const core::EvalCacheDir::MaintenanceStats& m) {
  std::string out;
  out += std::to_string(m.kept) + " kept (" + std::to_string(m.bytes_kept) +
         " bytes), " + std::to_string(m.dropped) + " dropped, " +
         std::to_string(m.adopted) + " adopted, " + std::to_string(m.evicted) +
         " evicted, " + std::to_string(m.files_removed) + " files removed\n";
  return out;
}

}  // namespace

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

  // Trace-list construction mirrors addm_explore exactly: suite traces
  // first, then request traces in order, file-stem naming for unnamed file
  // traces.  This ordering is what makes the served report byte-comparable
  // to the offline run.
  std::vector<seq::AddressTrace> traces;
  try {
    if (req.suite_scales > 0) {
      std::vector<seq::AddressTrace> suite =
          seq::scaled_suite(req.suite_base, req.suite_scales);
      for (auto& t : suite) traces.push_back(std::move(t));
    }
    for (const TraceSource& src : req.traces) {
      if (src.kind == TraceSource::Kind::kPath) {
        seq::AddressTrace t = seq::read_trace_file(src.name);
        if (t.name().empty())
          t.set_name(std::filesystem::path(src.name).stem().string());
        traces.push_back(std::move(t));
      } else {
        seq::AddressTrace t = seq::read_trace_string(src.data);
        if (t.name().empty() && !src.name.empty()) t.set_name(src.name);
        traces.push_back(std::move(t));
      }
    }
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

  out.report = req.format == "json" ? core::batch_report_json(result)
                                    : core::batch_report_csv(result);
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
  if (opt_.flush_entries > 0 &&
      explorer_.pending_flush() >= opt_.flush_entries) {
    std::lock_guard<std::mutex> lk(maintenance_mu_);
    explorer_.flush_disk();
  }
  return out;
}

core::BatchExplorer::FlushStats ExploreService::flush() {
  std::lock_guard<std::mutex> lk(maintenance_mu_);
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
    // admin request, maintenance-grade latency is fine.
    {
      std::lock_guard<std::mutex> lk(maintenance_mu_);
      explorer_.flush_disk();
      core::EvalCacheDir cache(opt_.cache_dir);
      out.output = core::eval_cache_stats_json(cache.stats());
    }
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
    core::EvalCacheDir::MaintenanceStats m;
    {
      // Flush-then-maintain under one lock: pending entries are persisted
      // first so maintenance sees them, and no flush can start while the
      // directory is being rewritten ("no concurrent writer").
      std::lock_guard<std::mutex> lk(maintenance_mu_);
      explorer_.flush_disk();
      core::EvalCacheDir cache(opt_.cache_dir);
      m = verb == "compact" ? cache.compact() : cache.prune(max_entries, max_bytes);
    }
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
