// addm_client — batch client for the addm_serve exploration daemon.
//
// The input, exploration-option and output flags are addm_explore's,
// parsed by the same code (tools/cli_util.hpp) into one ExploreRequest.
// The daemon runs that request on the path addm_explore runs locally —
// the same trace list, explorer and renderer — against its warm shared
// cache, so the report streamed back is byte-identical to the offline run
// with the same arguments (tests/serve_smoke.sh compares the two in CI).
//
// Besides explorations the client drives the daemon's lifecycle:
//   addm_client ping                  liveness probe (prints the banner)
//   addm_client admin stats           cache statistics (JSON)
//   addm_client admin compact         canonicalize the cache directory
//   addm_client admin prune --max-entries N / --max-bytes B
//   addm_client admin flush           persist pending cache state now
//   addm_client admin shutdown        ask the daemon to drain and exit
//
// Exit status: 0 = success, 1 = transport or server failure, 2 = usage,
// 3 = exploration completed but some traces reported errors.
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "serve/client.hpp"

namespace {

using addm::tools::need_value;
using addm::tools::usage_error;
using addm::tools::parse_bytes;
using addm::tools::parse_size;

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [connection] [explore options]\n"
      << "       " << argv0 << " [connection] ping\n"
      << "       " << argv0 << " [connection] admin COMMAND [options]\n"
      << "\n"
      << "connection (default: unix socket ./addm_serve.sock):\n"
      << "  --socket PATH        connect to a unix-domain socket at PATH\n"
      << "  --connect PORT       connect to 127.0.0.1:PORT instead\n"
      << "  --json               speak the JSON-lines fallback mode\n"
      << "\n"
      << "explore input selection (at least one):\n"
      << "  --suite N            built-in workload suite over N geometries\n"
      << "  --base WxH           base geometry for --suite (default 8x8)\n"
      << "  --trace FILE         add one trace file, read by the daemon\n"
      << "                       (repeatable)\n"
      << "  --send-trace FILE    add one trace file, read here and sent\n"
      << "                       inline (repeatable; for daemons that cannot\n"
      << "                       see this filesystem path)\n"
      << "\n"
      << "explore options (same semantics as addm_explore):\n"
      << addm::core::explore_flags_usage()
      << "\n"
      << "output:\n"
      << "  --format csv|json    report format (default csv)\n"
      << "  --out FILE           write report to FILE (default stdout)\n"
      << "  --quiet              suppress the stderr summary\n"
      << "\n"
      << "admin commands:\n"
      << "  stats | compact | flush | shutdown\n"
      << "  prune --max-entries N and/or --max-bytes B\n";
}

}  // namespace

int main(int argc, char** argv) {
  using addm::serve::ExploreRequest;
  using addm::serve::ServeClient;
  using addm::serve::TraceSource;

  std::string socket_path = "addm_serve.sock";
  int tcp_port = -1;
  bool json_mode = false;

  addm::tools::ExploreArgs args;
  ExploreRequest& req = args.request;
  std::string mode;  // "", "ping", "admin"
  std::vector<std::string> admin_args;
  bool have_max_entries = false;
  bool have_max_bytes = false;
  std::uint64_t max_entries = 0;
  std::uint64_t max_bytes = 0;

  for (int i = 1; i < argc; ++i) {
    if (addm::tools::parse_explore_arg(argc, argv, i, args)) continue;
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--socket") {
      socket_path = need_value(argc, argv, i);
      tcp_port = -1;
    } else if (arg == "--connect") {
      std::size_t port = 0;
      if (!parse_size(need_value(argc, argv, i), port) || port == 0 || port > 65535)
        usage_error(argv[0], "--connect expects a port number (1..65535)");
      tcp_port = static_cast<int>(port);
    } else if (arg == "--json") {
      json_mode = true;
    } else if (arg == "--send-trace") {
      const std::string path = need_value(argc, argv, i);
      TraceSource t;
      t.kind = TraceSource::Kind::kInline;
      t.name = std::filesystem::path(path).stem().string();
      if (!addm::tools::read_file(path, t.data)) {
        std::cerr << argv[0] << ": cannot open trace file: " << path << "\n";
        return 1;
      }
      req.traces.push_back(std::move(t));
    } else if (arg == "--max-entries") {
      if (!parse_bytes(need_value(argc, argv, i), max_entries) || max_entries == 0)
        usage_error(argv[0], "--max-entries expects a positive number");
      have_max_entries = true;
    } else if (arg == "--max-bytes") {
      if (!parse_bytes(need_value(argc, argv, i), max_bytes) || max_bytes == 0)
        usage_error(argv[0], "--max-bytes expects a positive byte size (suffix k/m/g)");
      have_max_bytes = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << argv[0] << ": unknown option '" << arg << "'\n";
      usage(argv[0]);
      return 2;
    } else if (mode.empty()) {
      if (arg != "ping" && arg != "admin") {
        std::cerr << argv[0] << ": unknown command '" << arg << "'\n";
        usage(argv[0]);
        return 2;
      }
      mode = arg;
    } else if (mode == "admin") {
      admin_args.push_back(arg);
    } else {
      std::cerr << argv[0] << ": unexpected argument '" << arg << "'\n";
      usage(argv[0]);
      return 2;
    }
  }

  if (mode.empty()) {
    if (req.suite_scales == 0 && req.traces.empty()) {
      std::cerr << argv[0]
                << ": no input traces (use --suite, --trace or --send-trace)\n";
      usage(argv[0]);
      return 2;
    }
    // The daemon resolves relative paths against its own working directory,
    // so hand it absolute ones when we can.
    for (TraceSource& t : req.traces) {
      if (t.kind != TraceSource::Kind::kPath) continue;
      std::error_code ec;
      const auto abs = std::filesystem::absolute(t.name, ec);
      if (!ec) t.name = abs.string();
    }
  }

  std::string admin_command;
  if (mode == "admin") {
    if (admin_args.empty())
      usage_error(argv[0],
                  "admin expects a command (stats, compact, prune, flush, shutdown)");
    const std::string& verb = admin_args[0];
    if (admin_args.size() > 1)
      usage_error(argv[0], "unexpected argument '" + admin_args[1] + "'");
    if (verb == "prune") {
      if (!have_max_entries && !have_max_bytes)
        usage_error(argv[0], "prune requires --max-entries and/or --max-bytes");
      admin_command = "prune " + std::to_string(have_max_entries ? max_entries : 0) +
                      " " + std::to_string(have_max_bytes ? max_bytes : 0);
    } else if (verb == "stats" || verb == "compact" || verb == "flush" ||
               verb == "shutdown") {
      admin_command = verb;
    } else {
      usage_error(argv[0], "unknown admin command '" + verb + "'");
    }
    if ((have_max_entries || have_max_bytes) && verb != "prune")
      usage_error(argv[0], "--max-entries/--max-bytes only apply to admin prune");
  } else if (have_max_entries || have_max_bytes) {
    usage_error(argv[0], "--max-entries/--max-bytes only apply to admin prune");
  }

  ServeClient client;
  client.set_json_mode(json_mode);
  std::string error;
  const bool connected =
      tcp_port >= 0 ? client.connect_tcp("127.0.0.1", tcp_port, error)
                    : client.connect_unix(socket_path, error);
  if (!connected) {
    std::cerr << argv[0] << ": " << error << "\n";
    return 1;
  }

  if (mode == "ping") {
    std::string banner;
    if (!client.ping(banner, error)) {
      std::cerr << argv[0] << ": " << error << "\n";
      return 1;
    }
    std::cout << banner << "\n";
    return 0;
  }

  if (mode == "admin") {
    ServeClient::Result result;
    if (!client.admin(admin_command, result, error)) {
      std::cerr << argv[0] << ": " << error << "\n";
      return 1;
    }
    if (!result.ok) {
      std::cerr << argv[0] << ": " << result.error.code << ": "
                << result.error.message << "\n";
      return 1;
    }
    std::cout << result.body;
    std::cout.flush();
    return std::cout ? 0 : 1;
  }

  ServeClient::Result result;
  if (!client.explore(req, result, error)) {
    std::cerr << argv[0] << ": " << error << "\n";
    return 1;
  }
  if (!result.ok) {
    std::cerr << argv[0] << ": " << result.error.code << ": "
              << result.error.message << "\n";
    return 1;
  }

  if (!addm::tools::write_report(argv[0], args.out_path, result.body)) return 1;

  if (!args.quiet) {
    std::fprintf(stderr,
                 "served %llu traces (%llu evaluated, %llu memo hits, "
                 "%llu disk hits, %llu errors)\n",
                 static_cast<unsigned long long>(result.summary.traces),
                 static_cast<unsigned long long>(result.summary.evaluations),
                 static_cast<unsigned long long>(result.summary.cache_hits),
                 static_cast<unsigned long long>(result.summary.disk_hits),
                 static_cast<unsigned long long>(result.summary.errors));
  }
  return result.summary.errors == 0 ? 0 : 3;
}
