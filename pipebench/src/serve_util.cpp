#include "serve_util.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "seq/stream_io.hpp"
#include "seq/trace_io.hpp"

namespace pipebench {

using namespace addm;

LocalServer::LocalServer(serve::ServiceOptions so, const std::string& socket_path,
                         std::size_t request_threads)
    : path_(socket_path), service_(std::move(so)), server_(service_, [&] {
        serve::ServerOptions vo;
        vo.unix_path = socket_path;
        vo.request_threads = request_threads;
        vo.quiet = true;
        return vo;
      }()) {
  std::string error;
  if (!server_.start(error)) throw std::runtime_error("server start: " + error);
  thread_ = std::thread([this] { server_.run(); });
}

LocalServer::~LocalServer() {
  server_.request_stop();
  thread_.join();
}

serve::ServeClient LocalServer::connect(bool json) const {
  serve::ServeClient c;
  c.set_json_mode(json);
  std::string error;
  if (!c.connect_unix(path_, error)) throw std::runtime_error("connect: " + error);
  return c;
}

std::vector<std::size_t> pick_subset(Rng& rng, std::size_t n, std::size_t subset) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  for (std::size_t i = 0; i < subset; ++i) std::swap(all[i], all[i + rng.below(n - i)]);
  all.resize(subset);
  return all;
}

serve::ExploreRequest make_request(
    const RequestSpec& spec, const std::vector<std::string>& paths,
    const std::vector<std::pair<std::string, std::string>>& options,
    std::uint64_t seed) {
  serve::ExploreRequest req;
  req.format = spec.json ? "json" : "csv";
  req.options = options;
  for (std::size_t f : spec.files) {
    serve::TraceSource src;
    src.kind = serve::TraceSource::Kind::kPath;
    src.name = paths[f];
    req.traces.push_back(std::move(src));
  }
  if (spec.novel >= 0) {
    const seq::AddressTrace t = novel_trace(seed, static_cast<std::uint64_t>(spec.novel));
    serve::TraceSource src;
    src.kind = serve::TraceSource::Kind::kInline;
    src.name = t.name();
    src.data = seq::write_trace_string(t);
    req.traces.push_back(std::move(src));
  }
  return req;
}

std::string offline_body(const RequestSpec& spec,
                         const std::vector<core::BatchEntry>& file_entries,
                         const std::vector<core::BatchEntry>& novel_entries) {
  core::BatchResult r;
  for (std::size_t f : spec.files) r.entries.push_back(file_entries[f]);
  if (spec.novel >= 0) r.entries.push_back(novel_entries[static_cast<std::size_t>(spec.novel)]);
  r.traces = r.entries.size();
  return spec.json ? core::batch_report_json(r) : core::batch_report_csv(r);
}

std::vector<core::BatchEntry> offline_entries(const std::vector<seq::AddressTrace>& traces,
                                              const core::ExploreOptions& explore,
                                              std::size_t threads) {
  core::BatchOptions bo;
  bo.explore = explore;
  bo.threads = threads;
  bo.memoize = false;
  core::BatchExplorer bx(bo);
  return bx.run(traces).entries;
}

std::vector<seq::AddressTrace> read_files(const std::vector<std::string>& paths) {
  std::vector<seq::AddressTrace> traces;
  for (const std::string& p : paths) {
    std::ifstream in(p, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open trace file: " + p);
    seq::TraceReader reader(in);
    seq::AddressTrace t = reader.read_all();
    if (t.name().empty()) t.set_name(fs::path(p).stem().string());
    traces.push_back(std::move(t));
  }
  return traces;
}

std::vector<std::pair<std::string, std::string>> option_pairs(
    const core::ExploreOptions& explore) {
  std::vector<std::pair<std::string, std::string>> o;
  if (explore.verify_front) o.emplace_back("verify-front", "");
  if (explore.compress_periodic) o.emplace_back("compress-periodic", "");
  return o;
}

}  // namespace pipebench
