// addm_serve — exploration-as-a-service daemon.
//
// Keeps the batch explorer's memo table (and optionally a persistent cache
// directory) warm across many exploration requests, so a stream of related
// runs pays the evaluation cost once instead of once per process.  Clients
// connect over a local socket — Unix-domain by default, TCP loopback with
// --listen — and speak the versioned framing in docs/serve-protocol.md
// (addm_client is the reference client; a JSON-lines fallback serves
// shell/script clients without the binary).
//
// Served reports are byte-identical to the offline addm_explore run with
// the same inputs and options — the daemon is a latency optimization, never
// a result change (tests/serve_smoke.sh enforces this in CI).
//
// Cache lifecycle: request threads never write the cache directory; new
// results accumulate in memory and one serialized writer flushes them
// periodically (--flush-entries), on admin flush, and at shutdown,
// honoring --cache-budget.  Admin compact/prune run under the same
// serialization, so the eval-cache maintenance contract holds inside a
// live daemon.
//
// Lifecycle: SIGINT/SIGTERM drain in-flight requests, flush pending cache
// state, and exit 0.  --max-requests and --idle-timeout bound a daemon's
// lifetime for CI.
//
// Exit status: 0 = clean drain, 1 = startup or socket failure, 2 = usage.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "cli_util.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace {

using addm::tools::need_value;
using addm::tools::parse_bytes;
using addm::tools::parse_size;

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "\n"
      << "transport (default: unix socket ./addm_serve.sock):\n"
      << "  --socket PATH        listen on a unix-domain socket at PATH\n"
      << "  --listen PORT        listen on 127.0.0.1:PORT instead (0 = pick a\n"
      << "                       free port; see --port-file)\n"
      << "  --port-file FILE     write the bound TCP port number to FILE\n"
      << "\n"
      << "execution:\n"
      << "  --threads N          worker-thread budget per request (default:\n"
      << "                       hardware)\n"
      << "  --request-threads N  concurrent connections served (default 2)\n"
      << "\n"
      << "cache lifecycle:\n"
      << "  --cache-dir DIR      persistent evaluation cache shared with\n"
      << "                       addm_explore runs\n"
      << "  --cache-budget B     prune the directory to at most B payload bytes\n"
      << "                       after each flush (suffix k/m/g; requires\n"
      << "                       --cache-dir)\n"
      << "  --flush-entries N    flush to disk once N entries are pending\n"
      << "                       (default 16; 0 = only on admin flush/shutdown)\n"
      << "\n"
      << "lifetime (for CI and scripting):\n"
      << "  --max-requests N     drain and exit 0 after serving N requests\n"
      << "  --idle-timeout S     drain and exit 0 after S seconds with no\n"
      << "                       activity\n"
      << "\n"
      << "  --quiet              suppress the stderr lifecycle log\n"
      << "  --help               this message\n";
}

addm::serve::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server) g_server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  addm::serve::ServiceOptions service_opt;
  addm::serve::ServerOptions server_opt;
  server_opt.unix_path = "addm_serve.sock";
  std::string port_file;
  bool have_listen = false;
  bool have_socket = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--socket") {
      server_opt.unix_path = need_value(argc, argv, i);
      have_socket = true;
    } else if (arg == "--listen") {
      std::size_t port = 0;
      if (!parse_size(need_value(argc, argv, i), port) || port > 65535) {
        std::cerr << argv[0] << ": --listen expects a port number (0..65535)\n";
        return 2;
      }
      server_opt.tcp_port = static_cast<int>(port);
      have_listen = true;
    } else if (arg == "--port-file") {
      port_file = need_value(argc, argv, i);
    } else if (arg == "--threads") {
      if (!parse_size(need_value(argc, argv, i), service_opt.threads) ||
          service_opt.threads > addm::tools::kMaxThreads) {
        std::cerr << argv[0] << ": --threads expects a number between 0 and "
                  << addm::tools::kMaxThreads << "\n";
        return 2;
      }
    } else if (arg == "--request-threads") {
      if (!parse_size(need_value(argc, argv, i), server_opt.request_threads) ||
          server_opt.request_threads == 0 ||
          server_opt.request_threads > addm::tools::kMaxThreads) {
        std::cerr << argv[0] << ": --request-threads expects 1.."
                  << addm::tools::kMaxThreads << "\n";
        return 2;
      }
    } else if (arg == "--cache-dir") {
      service_opt.cache_dir = need_value(argc, argv, i);
    } else if (arg == "--cache-budget") {
      if (!parse_bytes(need_value(argc, argv, i), service_opt.cache_budget_bytes) ||
          service_opt.cache_budget_bytes == 0) {
        std::cerr << argv[0]
                  << ": --cache-budget expects a positive byte size (suffix k/m/g)\n";
        return 2;
      }
    } else if (arg == "--flush-entries") {
      if (!parse_size(need_value(argc, argv, i), service_opt.flush_entries)) {
        std::cerr << argv[0] << ": --flush-entries expects a number\n";
        return 2;
      }
    } else if (arg == "--max-requests") {
      std::size_t v = 0;
      if (!parse_size(need_value(argc, argv, i), v) || v == 0) {
        std::cerr << argv[0] << ": --max-requests expects a positive number\n";
        return 2;
      }
      server_opt.max_requests = v;
    } else if (arg == "--idle-timeout") {
      char* end = nullptr;
      const char* s = need_value(argc, argv, i);
      const double v = std::strtod(s, &end);
      if (end == s || *end != '\0' || !(v > 0)) {
        std::cerr << argv[0] << ": --idle-timeout expects a positive number of seconds\n";
        return 2;
      }
      server_opt.idle_timeout_seconds = v;
    } else if (arg == "--quiet") {
      server_opt.quiet = true;
    } else {
      std::cerr << argv[0] << ": unknown option '" << arg << "'\n";
      usage(argv[0]);
      return 2;
    }
  }

  if (have_listen && have_socket) {
    std::cerr << argv[0] << ": --socket and --listen are mutually exclusive\n";
    return 2;
  }
  if (have_listen) server_opt.unix_path.clear();
  if (!port_file.empty() && !have_listen) {
    std::cerr << argv[0] << ": --port-file requires --listen\n";
    return 2;
  }
  if (service_opt.cache_budget_bytes != 0 && service_opt.cache_dir.empty()) {
    std::cerr << argv[0] << ": --cache-budget requires --cache-dir\n";
    return 2;
  }

  addm::serve::ExploreService service(service_opt);
  addm::serve::Server server(service, server_opt);

  std::string error;
  if (!server.start(error)) {
    std::cerr << argv[0] << ": " << error << "\n";
    return 1;
  }
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.bound_port() << "\n";
    out.flush();
    if (!out) {
      std::cerr << argv[0] << ": cannot write " << port_file << "\n";
      return 1;
    }
  }

  g_server = &server;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  return server.run();
}
