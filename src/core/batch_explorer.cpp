#include "core/batch_explorer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/eval_cache.hpp"
#include "core/fingerprint.hpp"
#include "core/thread_pool.hpp"

namespace addm::core {

namespace {

/// What one exploration produces. Cache entries and racing waiters share one
/// immutable Outcome (recompute avoidance); each BatchEntry then takes its
/// own copy of the vectors, keeping the public result type plain-value.
struct Outcome {
  std::vector<DesignPoint> points;
  std::vector<std::size_t> pareto;
  std::string error;
};

std::shared_ptr<const Outcome> evaluate_trace(const seq::AddressTrace& trace,
                                              const ExploreOptions& opt) {
  auto out = std::make_shared<Outcome>();
  try {
    out->points = explore_generators(trace, opt);
    out->pareto = pareto_front(out->points);
  } catch (const std::exception& e) {
    out->points.clear();
    out->pareto.clear();
    out->error = e.what();
  }
  return out;
}

std::string fixed6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

std::string csv_quote(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string q = "\"";
  for (char c : s) {
    if (c == '"') q += '"';
    q += c;
  }
  q += '"';
  return q;
}

std::string json_quote(const std::string& s) {
  std::string q = "\"";
  for (char c : s) {
    switch (c) {
      case '"': q += "\\\""; break;
      case '\\': q += "\\\\"; break;
      case '\n': q += "\\n"; break;
      case '\t': q += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          q += buf;
        } else {
          q += c;
        }
    }
  }
  q += '"';
  return q;
}

}  // namespace

struct BatchExplorer::Impl {
  std::mutex mu;
  /// Keyed by (trace fingerprint ^ rotated options fingerprint). The mapped
  /// shared_future lets a second worker that races on the same trace block
  /// on the first evaluation instead of recomputing it.
  std::unordered_map<std::uint64_t, std::shared_future<std::shared_ptr<const Outcome>>> cache;
  /// Keys (same combined form) whose outcomes were warm-started from the
  /// persistent cache directory: traces resolving to these count as disk
  /// hits, independent of scheduling.
  std::unordered_set<std::uint64_t> disk_keys;
  /// The write queue: successful evaluations and warm-start hit counts
  /// queued by run() for flush_disk(), guarded by `mu`.  pending_keys
  /// mirrors pending_entries so a key is never queued twice across runs.
  std::vector<EvalCacheEntry> pending_entries;
  std::unordered_set<std::uint64_t> pending_keys;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> pending_hits;
  /// Held for every write to the cache directory (flush and maintenance):
  /// the eval-cache maintenance operations assume no concurrent writer,
  /// and the serve daemon calls run(), flush_disk() and prune_disk() from
  /// several threads.
  std::mutex flush_mu;

  /// flush_disk()'s write sequence; the caller holds flush_mu.  Store the
  /// queued batch, credit the queued hits, then prune back under the
  /// budget when anything was written.
  FlushStats flush_locked(const BatchOptions& opt) {
    std::vector<EvalCacheEntry> batch;
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> queued_hits;
    {
      std::lock_guard<std::mutex> lk(mu);
      batch.swap(pending_entries);
      pending_keys.clear();
      queued_hits.swap(pending_hits);
    }
    std::vector<std::pair<EvalCacheKey, std::uint64_t>> hits;
    hits.reserve(queued_hits.size());
    for (const auto& [key, count] : queued_hits)
      hits.push_back({{key.first, key.second}, count});

    FlushStats stats;
    EvalCacheDir store(opt.cache_dir);
    if (!batch.empty()) stats.stored = store.store_batch(batch);
    if (!hits.empty()) store.record_hits(hits);
    if (opt.cache_budget_bytes != 0 && (stats.stored != 0 || !hits.empty())) {
      const EvalCacheDir::MaintenanceStats pruned =
          store.prune(UINT64_MAX, opt.cache_budget_bytes);
      if (pruned.ok) stats.evicted = pruned.evicted;
    }
    return stats;
  }
};

namespace {

std::uint64_t combined_key(std::uint64_t trace_fp, std::uint64_t opt_fp) {
  return trace_fp ^ (opt_fp << 1 | opt_fp >> 63);
}

}  // namespace

BatchExplorer::BatchExplorer(BatchOptions opt) : opt_(std::move(opt)), impl_(new Impl) {}

BatchExplorer::~BatchExplorer() { delete impl_; }

std::size_t BatchExplorer::cache_size() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->cache.size();
}

void BatchExplorer::clear_cache() {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->cache.clear();
  impl_->disk_keys.clear();
}

std::size_t BatchExplorer::pending_flush() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->pending_entries.size();
}

BatchExplorer::FlushStats BatchExplorer::flush_disk() {
  if (opt_.cache_dir.empty() || !opt_.memoize) return {};
  std::lock_guard<std::mutex> flush_lk(impl_->flush_mu);
  return impl_->flush_locked(opt_);
}

EvalCacheDir::MaintenanceStats BatchExplorer::prune_disk(std::uint64_t max_entries,
                                                        std::uint64_t max_bytes) {
  if (opt_.cache_dir.empty() || !opt_.memoize) {
    EvalCacheDir::MaintenanceStats none;
    none.ok = false;
    return none;
  }
  std::lock_guard<std::mutex> flush_lk(impl_->flush_mu);
  impl_->flush_locked(opt_);
  return EvalCacheDir(opt_.cache_dir).prune(max_entries, max_bytes);
}

BatchResult BatchExplorer::run(const std::vector<seq::AddressTrace>& traces) {
  return run(traces, opt_.explore);
}

BatchResult BatchExplorer::run(const std::vector<seq::AddressTrace>& traces,
                               const ExploreOptions& explore) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t opt_fp = options_fingerprint(explore);
  const bool use_disk = opt_.memoize && !opt_.cache_dir.empty();

  BatchResult result;
  result.traces = traces.size();
  result.entries.resize(traces.size());

  // Warm start: probe the cache directory for exactly the keys this run
  // needs (entry filenames derive from the key, so no index scan — cost is
  // O(inputs), not O(cache size)) and resolve hits into the memo table
  // before any worker runs.  Probing every run() also picks up entries
  // stored by concurrent processes since the last one.  Disk damage shows
  // up as failed probes, never as a failure.
  if (use_disk) {
    EvalCacheDir store(opt_.cache_dir);
    std::unordered_set<std::uint64_t> probed;
    for (const seq::AddressTrace& trace : traces) {
      const std::uint64_t trace_fp = trace_fingerprint(trace);
      const std::uint64_t key = combined_key(trace_fp, opt_fp);
      if (!probed.insert(key).second) continue;
      {
        std::lock_guard<std::mutex> lk(impl_->mu);
        if (impl_->cache.count(key)) continue;
      }
      EvalCacheEntry e;
      if (!store.load_entry({trace_fp, opt_fp}, e)) continue;
      auto outcome = std::make_shared<Outcome>();
      outcome->points = std::move(e.points);
      outcome->pareto = std::move(e.pareto);
      std::promise<std::shared_ptr<const Outcome>> ready;
      ready.set_value(std::move(outcome));
      std::lock_guard<std::mutex> lk(impl_->mu);
      if (impl_->cache.try_emplace(key, ready.get_future().share()).second) {
        impl_->disk_keys.insert(key);
        ++result.disk_entries_loaded;
      }
    }
  }

  std::mutex stats_mu;
  std::size_t evaluations = 0;
  std::size_t cache_hits = 0;
  std::size_t disk_hits = 0;
  /// Owner-evaluated successful outcomes, queued for flush_disk().
  std::vector<std::pair<std::uint64_t, std::shared_ptr<const Outcome>>> fresh;
  /// Per-trace-fingerprint disk-hit counts, queued for flush_disk() to
  /// credit to the persistent cache.
  std::map<std::uint64_t, std::uint64_t> disk_hit_counts;

  auto work = [&](std::size_t i) {
    const seq::AddressTrace& trace = traces[i];
    BatchEntry& entry = result.entries[i];
    entry.name = trace.name().empty() ? "trace" + std::to_string(i) : trace.name();
    entry.geometry = trace.geometry();
    entry.trace_length = trace.length();
    entry.trace_hash = trace_fingerprint(trace);
    const std::uint64_t key = combined_key(entry.trace_hash, opt_fp);

    std::shared_ptr<const Outcome> outcome;
    if (!opt_.memoize) {
      outcome = evaluate_trace(trace, explore);
      std::lock_guard<std::mutex> lk(stats_mu);
      ++evaluations;
    } else {
      std::promise<std::shared_ptr<const Outcome>> promise;
      std::shared_future<std::shared_ptr<const Outcome>> future;
      bool owner = false;
      bool from_disk = false;
      {
        std::lock_guard<std::mutex> lk(impl_->mu);
        auto [it, inserted] = impl_->cache.try_emplace(key);
        if (inserted) {
          it->second = promise.get_future().share();
          owner = true;
        } else {
          from_disk = impl_->disk_keys.count(key) != 0;
        }
        future = it->second;
      }
      if (owner) {
        auto computed = evaluate_trace(trace, explore);
        promise.set_value(computed);
        std::lock_guard<std::mutex> lk(stats_mu);
        ++evaluations;
        if (use_disk && computed->error.empty())
          fresh.emplace_back(entry.trace_hash, std::move(computed));
      } else {
        std::lock_guard<std::mutex> lk(stats_mu);
        if (from_disk) {
          ++disk_hits;
          if (use_disk) ++disk_hit_counts[entry.trace_hash];
        } else {
          ++cache_hits;
        }
      }
      outcome = future.get();
    }

    entry.points = outcome->points;
    entry.pareto = outcome->pareto;
    entry.error = outcome->error;
  };

  // One task per trace, on at most one worker per trace; a budget that
  // resolves to a single worker runs the loop inline without a pool.
  std::size_t workers = opt_.threads;
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  workers = std::min(workers, traces.size());
  if (workers <= 1) {
    for (std::size_t i = 0; i < traces.size(); ++i) work(i);
  } else {
    ThreadPool pool(workers);
    pool.parallel_for(traces.size(), work);
  }

  // Queue this run's successes and hit counts for flush_disk(); run()
  // never writes the directory.  Errors are never queued (a transient
  // failure must not become permanent).  Owners finish — and, with
  // duplicated traces, are even *chosen* — in scheduling order; flush_disk()
  // sorts, so the directory bytes do not depend on it.
  if (use_disk) {
    std::lock_guard<std::mutex> lk(impl_->mu);
    for (const auto& [trace_fp, outcome] : fresh) {
      const std::uint64_t key = combined_key(trace_fp, opt_fp);
      if (!impl_->pending_keys.insert(key).second) continue;
      EvalCacheEntry e;
      e.key = {trace_fp, opt_fp};
      e.points = outcome->points;
      e.pareto = outcome->pareto;
      impl_->pending_entries.push_back(std::move(e));
    }
    for (const auto& [trace_fp, count] : disk_hit_counts)
      impl_->pending_hits[{trace_fp, opt_fp}] += count;
  }

  result.evaluations = evaluations;
  result.cache_hits = cache_hits;
  result.disk_hits = disk_hits;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

std::string batch_report_csv(const BatchResult& result) {
  std::ostringstream os;
  os << "trace,width,height,length,trace_hash,architecture,feasible,pareto,"
        "area_units,delay_ns,clk_to_out_ns,reg_to_reg_ns,cells,flipflops,"
        "buffers_added,note\n";
  for (const BatchEntry& e : result.entries) {
    const std::string prefix = csv_quote(e.name) + "," + std::to_string(e.geometry.width) +
                               "," + std::to_string(e.geometry.height) + "," +
                               std::to_string(e.trace_length) + "," + hex64(e.trace_hash);
    if (!e.error.empty()) {
      os << prefix << ",,error,,,,,,,,," << csv_quote(e.error) << "\n";
      continue;
    }
    for (std::size_t i = 0; i < e.points.size(); ++i) {
      const DesignPoint& p = e.points[i];
      const bool on_front =
          std::find(e.pareto.begin(), e.pareto.end(), i) != e.pareto.end();
      os << prefix << "," << csv_quote(p.architecture) << ","
         << (p.feasible ? "yes" : "no") << "," << (on_front ? "yes" : "no") << ",";
      if (p.feasible) {
        os << fixed6(p.metrics.area_units) << "," << fixed6(p.metrics.delay_ns) << ","
           << fixed6(p.metrics.clk_to_out_ns) << "," << fixed6(p.metrics.reg_to_reg_ns)
           << "," << p.metrics.cells << "," << p.metrics.flipflops << ","
           << p.metrics.buffers_added;
      } else {
        os << ",,,,,,";
      }
      os << "," << csv_quote(p.note) << "\n";
    }
  }
  return os.str();
}

std::string batch_report_json(const BatchResult& result) {
  std::ostringstream os;
  os << "{\n";
  // Only input-determined data may appear here: evaluation/cache counters
  // depend on cache warmth and sharding, and would break the byte-identical
  // merge contract.  They are reported out-of-band (stderr in the CLI).
  os << "  \"summary\": {\"traces\": " << result.traces << "},\n";
  os << "  \"traces\": [\n";
  for (std::size_t t = 0; t < result.entries.size(); ++t) {
    const BatchEntry& e = result.entries[t];
    os << "    {\n";
    os << "      \"name\": " << json_quote(e.name) << ",\n";
    os << "      \"geometry\": [" << e.geometry.width << ", " << e.geometry.height
       << "],\n";
    os << "      \"length\": " << e.trace_length << ",\n";
    os << "      \"trace_hash\": \"" << hex64(e.trace_hash) << "\",\n";
    if (!e.error.empty()) {
      os << "      \"error\": " << json_quote(e.error) << "\n";
    } else {
      os << "      \"pareto\": [";
      for (std::size_t i = 0; i < e.pareto.size(); ++i)
        os << (i ? ", " : "") << e.pareto[i];
      os << "],\n";
      os << "      \"points\": [\n";
      for (std::size_t i = 0; i < e.points.size(); ++i) {
        const DesignPoint& p = e.points[i];
        os << "        {\"architecture\": " << json_quote(p.architecture)
           << ", \"feasible\": " << (p.feasible ? "true" : "false");
        if (p.feasible) {
          os << ", \"area_units\": " << fixed6(p.metrics.area_units)
             << ", \"delay_ns\": " << fixed6(p.metrics.delay_ns)
             << ", \"clk_to_out_ns\": " << fixed6(p.metrics.clk_to_out_ns)
             << ", \"reg_to_reg_ns\": " << fixed6(p.metrics.reg_to_reg_ns)
             << ", \"cells\": " << p.metrics.cells
             << ", \"flipflops\": " << p.metrics.flipflops
             << ", \"buffers_added\": " << p.metrics.buffers_added;
        }
        os << ", \"note\": " << json_quote(p.note) << "}"
           << (i + 1 < e.points.size() ? ",\n" : "\n");
      }
      os << "      ]\n";
    }
    os << "    }" << (t + 1 < result.entries.size() ? ",\n" : "\n");
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

}  // namespace addm::core
