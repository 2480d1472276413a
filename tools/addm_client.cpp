// addm_client — batch client for the addm_serve exploration daemon.
//
// Mirrors the addm_explore interface over a socket: the same input
// selection and exploration flags build one explore request, the daemon
// runs it against its warm shared cache, and the report streamed back is
// byte-identical to the offline addm_explore run with the same arguments
// (tests/serve_smoke.sh compares the two in CI).
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
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "core/explore_flags.hpp"
#include "serve/client.hpp"

namespace {

using addm::core::explore_flag_arg;
using addm::core::ExploreFlag;
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
  std::string out_path;
  bool quiet = false;

  ExploreRequest req;
  std::string mode;  // "", "ping", "admin"
  std::vector<std::string> admin_args;
  bool have_input = false;
  bool have_max_entries = false;
  bool have_max_bytes = false;
  std::uint64_t max_entries = 0;
  std::uint64_t max_bytes = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // A table option's empty value is as missing as an absent one.
    auto need_value = [&](bool nonempty = false) -> const char* {
      if (i + 1 >= argc || (nonempty && !*argv[i + 1])) {
        std::cerr << argv[0] << ": " << arg << " requires a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--socket") {
      socket_path = need_value();
      tcp_port = -1;
    } else if (arg == "--connect") {
      std::size_t port = 0;
      if (!parse_size(need_value(), port) || port == 0 || port > 65535) {
        std::cerr << argv[0] << ": --connect expects a port number (1..65535)\n";
        return 2;
      }
      tcp_port = static_cast<int>(port);
    } else if (arg == "--json") {
      json_mode = true;
    } else if (arg == "--suite") {
      if (!parse_size(need_value(), req.suite_scales) || req.suite_scales == 0) {
        std::cerr << argv[0] << ": --suite expects a positive count\n";
        return 2;
      }
      have_input = true;
    } else if (arg == "--base") {
      if (!addm::seq::parse_geometry(need_value(), req.suite_base)) {
        std::cerr << argv[0] << ": --base expects WxH (e.g. 8x8)\n";
        return 2;
      }
    } else if (arg == "--trace") {
      TraceSource t;
      t.kind = TraceSource::Kind::kPath;
      // The daemon resolves relative paths against its own working
      // directory, so hand it an absolute one when we can.
      std::error_code ec;
      const auto abs = std::filesystem::absolute(need_value(), ec);
      t.name = ec ? std::string(argv[i]) : abs.string();
      req.traces.push_back(std::move(t));
      have_input = true;
    } else if (arg == "--send-trace") {
      const std::string path = need_value();
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        std::cerr << argv[0] << ": cannot open trace file: " << path << "\n";
        return 1;
      }
      std::ostringstream data;
      data << in.rdbuf();
      TraceSource t;
      t.kind = TraceSource::Kind::kInline;
      t.name = std::filesystem::path(path).stem().string();
      t.data = data.str();
      req.traces.push_back(std::move(t));
      have_input = true;
    } else if (const ExploreFlag* f = explore_flag_arg(arg)) {
      req.options.emplace_back(f->name, f->metavar.empty() ? "" : need_value(true));
    } else if (arg == "--format") {
      req.format = need_value();
      if (req.format != "csv" && req.format != "json") {
        std::cerr << argv[0] << ": --format must be csv or json\n";
        return 2;
      }
    } else if (arg == "--out") {
      out_path = need_value();
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--max-entries") {
      if (!parse_bytes(need_value(), max_entries) || max_entries == 0) {
        std::cerr << argv[0] << ": --max-entries expects a positive number\n";
        return 2;
      }
      have_max_entries = true;
    } else if (arg == "--max-bytes") {
      if (!parse_bytes(need_value(), max_bytes) || max_bytes == 0) {
        std::cerr << argv[0]
                  << ": --max-bytes expects a positive byte size (suffix k/m/g)\n";
        return 2;
      }
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

  // Validate the exploration options locally so usage errors stay exit 2
  // and never reach the daemon.
  if (mode.empty()) {
    if (!have_input) {
      std::cerr << argv[0]
                << ": no input traces (use --suite, --trace or --send-trace)\n";
      usage(argv[0]);
      return 2;
    }
    addm::core::ExploreOptions scratch;
    std::string why;
    if (!addm::serve::build_explore_options(req, scratch, why)) {
      std::cerr << argv[0] << ": --" << why << "\n";
      return 2;
    }
  }

  std::string admin_command;
  if (mode == "admin") {
    if (admin_args.empty()) {
      std::cerr << argv[0]
                << ": admin expects a command (stats, compact, prune, flush, shutdown)\n";
      return 2;
    }
    const std::string& verb = admin_args[0];
    if (admin_args.size() > 1) {
      std::cerr << argv[0] << ": unexpected argument '" << admin_args[1] << "'\n";
      return 2;
    }
    if (verb == "prune") {
      if (!have_max_entries && !have_max_bytes) {
        std::cerr << argv[0]
                  << ": prune requires --max-entries and/or --max-bytes\n";
        return 2;
      }
      admin_command = "prune " + std::to_string(have_max_entries ? max_entries : 0) +
                      " " + std::to_string(have_max_bytes ? max_bytes : 0);
    } else if (verb == "stats" || verb == "compact" || verb == "flush" ||
               verb == "shutdown") {
      admin_command = verb;
    } else {
      std::cerr << argv[0] << ": unknown admin command '" << verb << "'\n";
      return 2;
    }
    if (have_max_entries || have_max_bytes) {
      if (verb != "prune") {
        std::cerr << argv[0]
                  << ": --max-entries/--max-bytes only apply to admin prune\n";
        return 2;
      }
    }
  } else if (have_max_entries || have_max_bytes) {
    std::cerr << argv[0] << ": --max-entries/--max-bytes only apply to admin prune\n";
    return 2;
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

  if (out_path.empty()) {
    std::cout << result.body;
    std::cout.flush();
    if (!std::cout) {
      std::cerr << argv[0] << ": error writing report to stdout\n";
      return 1;
    }
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << argv[0] << ": cannot open " << out_path << " for writing\n";
      return 1;
    }
    out << result.body;
    out.flush();
    if (!out) {
      std::cerr << argv[0] << ": error writing report to " << out_path << "\n";
      return 1;
    }
  }

  if (!quiet) {
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
