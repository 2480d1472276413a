// addm_trace_gen — writes the built-in workload suite as *.trace files so
// external profilers (and addm_explore --trace-dir) can consume them.
//
//   addm_trace_gen --out-dir traces --suite 12 [--base 8x8]
//
// produces one file per trace, named after the trace
// (e.g. transpose_16x8.trace), in the seq/trace_io text format.  A suite
// with a geometry over seq::kMaxSuiteCells cells is refused as in
// addm_explore, before anything is generated.
#include <filesystem>
#include <iostream>
#include <string>

#include "cli_util.hpp"
#include "seq/trace_io.hpp"
#include "seq/workloads.hpp"

int main(int argc, char** argv) {
  std::string out_dir;
  std::size_t scales = 1;
  addm::seq::ArrayGeometry base{8, 8};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cerr << "usage: " << argv[0]
                << " --out-dir DIR [--suite N] [--base WxH]\n";
      return 0;
    } else if (arg == "--out-dir") {
      out_dir = addm::tools::need_value(argc, argv, i);
    } else if (arg == "--suite") {
      scales = addm::tools::suite_value(argc, argv, i);
    } else if (arg == "--base") {
      base = addm::tools::base_value(argc, argv, i);
    } else {
      addm::tools::usage_error(argv[0], "unknown option '" + arg + "'");
    }
  }
  if (out_dir.empty()) addm::tools::usage_error(argv[0], "--out-dir is required");
  addm::tools::require_suite_fits(argv[0], base, scales);

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
