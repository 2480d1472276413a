// addm_trace_gen — writes the built-in workload suite as *.trace files so
// external profilers (and addm_explore --trace-dir) can consume them.
//
//   addm_trace_gen --out-dir traces --suite 12 [--base 8x8]
//
// produces one file per trace, named after the trace
// (e.g. transpose_16x8.trace), in the seq/trace_io text format.
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "cli_util.hpp"
#include "seq/trace_io.hpp"
#include "seq/workloads.hpp"

using addm::seq::parse_geometry;
using addm::tools::parse_size;

int main(int argc, char** argv) {
  std::string out_dir;
  std::size_t scales = 1;
  addm::seq::ArrayGeometry base{8, 8};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": " << arg << " requires a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      std::cerr << "usage: " << argv[0]
                << " --out-dir DIR [--suite N] [--base WxH]\n";
      return 0;
    } else if (arg == "--out-dir") {
      out_dir = need_value();
    } else if (arg == "--suite") {
      if (!parse_size(need_value(), scales) || scales == 0) {
        std::cerr << argv[0] << ": --suite expects a positive count\n";
        return 2;
      }
    } else if (arg == "--base") {
      if (!parse_geometry(need_value(), base)) {
        std::cerr << argv[0] << ": --base expects WxH (e.g. 8x8)\n";
        return 2;
      }
    } else {
      std::cerr << argv[0] << ": unknown option '" << arg << "'\n";
      return 2;
    }
  }
  if (out_dir.empty()) {
    std::cerr << argv[0] << ": --out-dir is required\n";
    return 2;
  }

  try {
    std::filesystem::create_directories(out_dir);
    const auto traces = addm::seq::scaled_suite(base, scales);
    for (const auto& t : traces) {
      const std::string path =
          (std::filesystem::path(out_dir) / (t.name() + ".trace")).string();
      addm::seq::write_trace_file(path, t);
    }
    std::cerr << "wrote " << traces.size() << " traces to " << out_dir << "\n";
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}
