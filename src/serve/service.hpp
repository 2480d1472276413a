// Request execution for the addm_serve daemon: one ExploreService owns the
// process-wide warm state — a BatchExplorer whose in-memory memo table is
// shared by every request — and the cache-directory lifecycle.
//
// Determinism contract: explore() produces a report body byte-identical to
// the offline `addm_explore` run with the same inputs and options.  That
// holds because the service reuses the exact CLI building blocks — the same
// suite constructor, the same suite-then-files list order, the same
// file-stem naming rule, the same BatchExplorer and report renderers — and
// because the BatchExplorer contract already guarantees reports independent
// of cache warmth and thread counts.  tests/serve_smoke.sh byte-compares
// the two paths in CI.
//
// Cache lifecycle: BatchExplorer::run() only reads the cache directory, so
// request threads never write it — newly computed entries and warm-start
// hit counts queue in the explorer until the flush policy
// (`flush_entries`), an admin `flush`, or shutdown persists them through
// BatchExplorer::flush_disk(), the one write path.  Admin maintenance
// (compact/prune) is BatchExplorer::prune_disk(), which flushes first and
// runs behind the same writer lock, so the eval-cache rule "compact/prune
// assume no concurrent writer" holds inside a daemon that is concurrently
// *reading* the directory (readers tolerate rewrites by contract: a
// deleted or rewritten entry degrades to a miss, never a wrong hit —
// tests/cache_concurrency_test.cpp).  The service itself holds no lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/batch_explorer.hpp"
#include "serve/protocol.hpp"

namespace addm::serve {

/// Daemon-side execution knobs (the request protocol carries none of
/// these: scheduling and cache lifecycle belong to the operator).
struct ServiceOptions {
  /// Total worker-thread budget per request run (0 = hardware).  Each
  /// concurrent request builds its pool against this budget, so the
  /// operator bounds oversubscription via the server's request threads.
  std::size_t threads = 0;
  /// Persistent evaluation cache directory; empty = memo table only.
  std::string cache_dir;
  /// On-disk payload-byte budget enforced after each flush (0 = none).
  std::uint64_t cache_budget_bytes = 0;
  /// Flush to disk once this many entries are pending (0 = only on admin
  /// flush / shutdown; 1 = after every request that computed something).
  std::size_t flush_entries = 16;
};

/// The daemon's brain: protocol-level requests in, report bytes out.
/// Thread-safe: explore() may run concurrently with itself and with
/// admin(); see the serialization story above.
class ExploreService {
 public:
  explicit ExploreService(ServiceOptions opt);

  /// Outcome of one explore request.  On !ok, `error` explains and the
  /// other fields are empty.
  struct ExploreOutcome {
    bool ok = false;
    ErrorInfo error;
    std::string report;      ///< full report body (CSV or JSON)
    ExploreSummary summary;  ///< out-of-band counters for the kDone frame
  };
  ExploreOutcome explore(const ExploreRequest& req);

  /// Outcome of one admin command.  `shutdown` asks the server to begin
  /// its drain after replying.
  struct AdminOutcome {
    bool ok = false;
    ErrorInfo error;
    std::string output;  ///< human/machine text for the kAdminDone payload
    bool shutdown = false;
  };
  /// Commands: "stats", "compact", "prune MAX_ENTRIES MAX_BYTES" (0 =
  /// unlimited, at least one non-zero), "flush", "shutdown".
  AdminOutcome admin(std::string_view command);

  /// Persists all pending cache state (shutdown path and admin "flush").
  core::BatchExplorer::FlushStats flush();

  /// Requests served so far (explore + admin + ping, successful or not) —
  /// the server's --max-requests counter.
  std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Answers a ping: counts toward --max-requests like every other
  /// answered protocol interaction, and returns the banner.
  const char* ping() {
    requests_.fetch_add(1, std::memory_order_relaxed);
    return banner();
  }

  const char* banner() const { return "addm_serve protocol 1"; }

 private:
  ServiceOptions opt_;
  core::BatchExplorer explorer_;
  std::atomic<std::uint64_t> requests_{0};
};

}  // namespace addm::serve
