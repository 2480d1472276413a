// In-process daemon and request helpers shared by serve_warm and the serve
// stage of the traced run.
#pragma once

#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace pipebench {

/// ExploreService + Server on a Unix socket, accept loop on its own thread.
/// The destructor stops the server and joins the thread.
class LocalServer {
 public:
  LocalServer(addm::serve::ServiceOptions so, const std::string& socket_path,
              std::size_t request_threads);
  ~LocalServer();
  LocalServer(const LocalServer&) = delete;
  LocalServer& operator=(const LocalServer&) = delete;

  /// A connected client in binary (json = false) or JSON-lines mode; throws
  /// when the connection fails.
  addm::serve::ServeClient connect(bool json) const;
  addm::serve::ExploreService& service() { return service_; }

 private:
  std::string path_;
  addm::serve::ExploreService service_;
  addm::serve::Server server_;
  std::thread thread_;
};

/// One explore request over a subset of trace files, optionally carrying one
/// novel inline trace.  `files` indexes the workload's file list; `novel`
/// is the novel-trace index, or -1.
struct RequestSpec {
  std::vector<std::size_t> files;
  long long novel = -1;
  bool json = false;  ///< JSON lines + JSON report, else binary + CSV
};

/// A seeded subset of `subset` distinct files out of `n`.
std::vector<std::size_t> pick_subset(Rng& rng, std::size_t n, std::size_t subset);

addm::serve::ExploreRequest make_request(
    const RequestSpec& spec, const std::vector<std::string>& paths,
    const std::vector<std::pair<std::string, std::string>>& options,
    std::uint64_t seed);

/// The offline render of a request: batch_report_csv/json over the entries
/// an offline BatchExplorer produced for the same traces.
std::string offline_body(const RequestSpec& spec,
                         const std::vector<addm::core::BatchEntry>& file_entries,
                         const std::vector<addm::core::BatchEntry>& novel_entries);

/// Entries of an offline (fresh, serial-per-trace) exploration.
std::vector<addm::core::BatchEntry> offline_entries(
    const std::vector<addm::seq::AddressTrace>& traces,
    const addm::core::ExploreOptions& explore, std::size_t threads);

/// Reads trace files the way addm_explore --stream does: TraceReader, name
/// from the file stem when the file has none.
std::vector<addm::seq::AddressTrace> read_files(const std::vector<std::string>& paths);

/// Request-protocol spelling of an ExploreOptions (verify-front,
/// compress-periodic).
std::vector<std::pair<std::string, std::string>> option_pairs(
    const addm::core::ExploreOptions& explore);

}  // namespace pipebench
