// pipebench — the exploration pipeline benchmark.
//
//   pipebench --workload suite_cold|stream_periodic|serve_warm --seed N
//             --seconds S --trace 0|1 --work-dir DIR --out-dir DIR
//
// Runs one workload in this process (so peak RSS and set-up time belong to
// it alone), checks every output, and prints as its last stdout line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1).  The line before it records the host and build.
// Exit status: 0 when every check passed, 3 when some failed, 2 on bad
// usage or an assert-enabled build, 1 when the run could not complete.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "serve/protocol.hpp"

#ifndef PIPEBENCH_BUILD_TYPE
#define PIPEBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace pipebench;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string host_json() {
  using addm::serve::json_escape;
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"cpu\": \""
     << json_escape(cpu_model()) << "\", \"compiler\": \"" << json_escape(compiler())
     << "\", \"build_type\": \"" << PIPEBENCH_BUILD_TYPE << "\", \"asserts\": "
#ifdef NDEBUG
     << "false"
#else
     << "true"
#endif
     << "}";
  return os.str();
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload suite_cold|stream_periodic|serve_warm --seed N --seconds S"
               " --trace 0|1 --work-dir DIR --out-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i], value = argv[i + 1];
      if (key == "--workload") cfg.workload = value;
      else if (key == "--seed") cfg.seed = std::stoull(value);
      else if (key == "--seconds") cfg.seconds = std::stod(value);
      else if (key == "--trace") cfg.trace = value == "1";
      else if (key == "--work-dir") cfg.work_dir = fs::absolute(value);
      else if (key == "--out-dir") cfg.out_dir = fs::absolute(value);
      else return usage(argv[0]);
    }
  } catch (const std::exception&) {
    return usage(argv[0]);
  }
  if (argc % 2 == 0 || cfg.work_dir.empty() || cfg.out_dir.empty() || cfg.seconds <= 0)
    return usage(argv[0]);

  void (*workload)(const RunConfig&, Outcome&, const std::string&) = nullptr;
  if (cfg.workload == "suite_cold") workload = suite_cold;
  else if (cfg.workload == "stream_periodic") workload = stream_periodic;
  else if (cfg.workload == "serve_warm") workload = serve_warm;
  else return usage(argv[0]);

  const std::string host = host_json();
#ifndef NDEBUG
  // Wall-clock numbers are only meaningful from an optimized build.
  std::cerr << "pipebench: refusing to measure an assert-enabled build (" << host << ")\n";
  return 2;
#endif

  Outcome out;
  try {
    fs::remove_all(cfg.work_dir);
    fs::create_directories(cfg.work_dir);
    fs::current_path(cfg.work_dir);  // sockets use short relative paths
    workload(cfg, out, host);
    fs::current_path(cfg.work_dir.parent_path());
    fs::remove_all(cfg.work_dir);
  } catch (const std::exception& e) {
    std::cerr << "pipebench: " << cfg.workload << ": " << e.what() << "\n";
    return 1;
  }

  std::fprintf(stderr, "pipebench %s seed %llu%s: %llu attempted, %llu failed, failed_ratio %.6f\n",
               cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
               cfg.trace ? " (traced)" : "", static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed),
               out.attempted ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
                             : 0.0);
  for (const std::string& why : out.reasons) std::fprintf(stderr, "  failed: %s\n", why.c_str());
  for (const auto& [name, v] : out.metrics)
    std::fprintf(stderr, "  %-28s %16.6f %s\n", name.c_str(), v.first, v.second.c_str());

  std::printf("{\"host\": %s}\n", host.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              out.failed == 0 ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                out.metrics[i].first.c_str(), out.metrics[i].second.first,
                out.metrics[i].second.second.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
  return out.failed == 0 ? 0 : 3;
}
