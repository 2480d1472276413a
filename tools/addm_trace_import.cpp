// addm_trace_import — converts valgrind/lackey-style recorded memory logs
// into trace files for addm_explore.
//
//   valgrind --tool=lackey --trace-mem=yes ./app 2> app.log
//   addm_trace_import --geometry 64x64 --in app.log --out app.trace
//
// Log lines look like "I 04023c10,3" / " L 04025cb0,8" (instruction fetch,
// load, store, modify; hex address, byte size); `==pid==` chatter and blank
// lines are skipped.  Selected accesses map onto the declared array as
// linear = (addr - base) / word size; by default the base is the first
// selected access's address, so a dumped array maps from word 0.
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "cli_util.hpp"
#include "seq/stream_io.hpp"
#include "seq/trace_io.hpp"

namespace {

using addm::seq::parse_geometry;
using addm::tools::need_value;
using addm::tools::parse_size;

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --geometry WxH [options]\n"
      << "\n"
      << "  --geometry WxH       target array shape (required); addresses must\n"
      << "                       map inside it\n"
      << "  --in FILE            lackey-style log to read (default: stdin)\n"
      << "  --out FILE           trace file to write (default: stdout)\n"
      << "  --kinds CHARS        access markers to keep, a subset of ILSM\n"
      << "                       (default LSM: loads, stores, modifies)\n"
      << "  --word N             bytes per array word (default 4); sub-word\n"
      << "                       accesses fold onto their containing word\n"
      << "  --base auto|ADDR     base address mapping to word 0: 'auto' (the\n"
      << "                       default) uses the first kept access, ADDR is\n"
      << "                       hex (0x... or bare hex digits)\n"
      << "  --name NAME          name directive for the output trace\n"
      << "  --quiet              suppress the stderr summary\n";
}

// Hex base address: optional 0x/0X prefix, then hex digits.
bool parse_base(const char* s, std::uint64_t& out) {
  if (!s || !*s) return false;
  if (s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) s += 2;
  if (!*s) return false;
  std::uint64_t v = 0;
  for (; *s; ++s) {
    if (!std::isxdigit(static_cast<unsigned char>(*s))) return false;
    if (v >> 60) return false;  // would overflow
    const char c = static_cast<char>(std::tolower(static_cast<unsigned char>(*s)));
    v = v * 16 + static_cast<std::uint64_t>(
                     std::isdigit(static_cast<unsigned char>(c)) ? c - '0'
                                                                 : c - 'a' + 10);
  }
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  addm::seq::LackeyImportOptions opt;
  bool have_geometry = false;
  std::string in_path;
  std::string out_path;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--geometry") {
      if (!parse_geometry(need_value(argc, argv, i), opt.geometry)) {
        std::cerr << argv[0] << ": --geometry expects WxH (e.g. 64x64)\n";
        return 2;
      }
      have_geometry = true;
    } else if (arg == "--in") {
      in_path = need_value(argc, argv, i);
    } else if (arg == "--out") {
      out_path = need_value(argc, argv, i);
    } else if (arg == "--kinds") {
      opt.kinds = need_value(argc, argv, i);
      if (opt.kinds.empty() ||
          opt.kinds.find_first_not_of("ILSM") != std::string::npos) {
        std::cerr << argv[0] << ": --kinds expects a non-empty subset of ILSM\n";
        return 2;
      }
    } else if (arg == "--word") {
      std::size_t v = 0;
      if (!parse_size(need_value(argc, argv, i), v) || v == 0 || v > (1u << 20)) {
        std::cerr << argv[0] << ": --word expects a positive byte count\n";
        return 2;
      }
      opt.word_bytes = static_cast<std::uint32_t>(v);
    } else if (arg == "--base") {
      const std::string value = need_value(argc, argv, i);
      if (value == "auto") {
        opt.auto_base = true;
      } else if (parse_base(value.c_str(), opt.base)) {
        opt.auto_base = false;
      } else {
        std::cerr << argv[0] << ": --base expects 'auto' or a hex address\n";
        return 2;
      }
    } else if (arg == "--name") {
      opt.name = need_value(argc, argv, i);
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::cerr << argv[0] << ": unknown option '" << arg << "'\n";
      usage(argv[0]);
      return 2;
    }
  }
  if (!have_geometry) {
    std::cerr << argv[0] << ": --geometry is required\n";
    usage(argv[0]);
    return 2;
  }

  try {
    addm::seq::AddressTrace trace =
        in_path.empty() ? addm::seq::import_lackey(std::cin, opt)
                        : addm::seq::import_lackey_file(in_path, opt);
    if (out_path.empty()) {
      addm::seq::write_trace(std::cout, trace);
      std::cout.flush();
      if (!std::cout) {
        std::cerr << argv[0] << ": error writing trace to stdout\n";
        return 1;
      }
    } else {
      addm::seq::write_trace_file(out_path, trace);
    }
    if (!quiet)
      std::cerr << "imported " << trace.length() << " accesses onto "
                << trace.geometry().width << "x" << trace.geometry().height
                << " (kinds " << opt.kinds << ", word " << opt.word_bytes
                << " bytes)\n";
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}
