// Fuzz target for the trace text grammar (seq/trace_io.hpp) and periodicity
// compression (seq/periodicity.hpp).
//
// Every input is read by seq::TraceReader at chunk sizes 1, 7 and 64 KiB and
// by the test-only reference parser (tests/trace_reference.hpp); any
// difference in the parsed trace or in the exact error string aborts.  Every
// input that parses is then compressed by seq::compress_periodic, which must
// equal the brute-force reference (tests/periodicity_reference.hpp) and
// expand back to the trace, or the harness aborts.
//
// With clang and -DADDM_FUZZ=ON this links against libFuzzer
// (-fsanitize=fuzzer); otherwise replay_main.cpp replays the checked-in
// seed corpus through the same entry point as a ctest.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "periodicity_reference.hpp"
#include "seq/periodicity.hpp"
#include "seq/stream_io.hpp"
#include "trace_reference.hpp"

namespace {

using addm::seq::TraceReader;
using addm::seq::reference::read_outcome;
using addm::seq::reference::ReadOutcome;

[[noreturn]] void report_difference(const std::string& text, std::size_t chunk,
                                    const ReadOutcome& expected, const ReadOutcome& got) {
  std::fprintf(stderr,
               "trace grammar mismatch at chunk %zu\n--- input (%zu bytes)\n%s\n---\n"
               "reference: ok=%d error='%s' addresses=%zu\n"
               "reader:    ok=%d error='%s' addresses=%zu\n",
               chunk, text.size(), text.c_str(), expected.ok, expected.error.c_str(),
               expected.linear.size(), got.ok, got.error.c_str(), got.linear.size());
  std::abort();
}

void check_compression(const ReadOutcome& parsed) {
  const addm::seq::AddressTrace trace(parsed.geometry, parsed.linear, parsed.name);
  const addm::seq::CompressedTrace got = addm::seq::compress_periodic(trace);
  const addm::seq::CompressedTrace want = addm::seq::reference::compress_periodic(trace);
  if (addm::seq::reference::same_factorization(got, want) &&
      got.expand().linear() == trace.linear())
    return;
  std::fprintf(stderr,
               "periodicity mismatch on %zu addresses\n"
               "reference:  prefix=%zu period=%zu repeats=%zu tail=%zu\n"
               "compressor: prefix=%zu period=%zu repeats=%zu tail=%zu\n",
               trace.length(), want.prefix.size(), want.period.size(), want.repeats,
               want.tail, got.prefix.size(), got.period.size(), got.repeats, got.tail);
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  const ReadOutcome expected =
      read_outcome([&] { return addm::seq::reference::read_trace_string(text); });
  for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, TraceReader::kDefaultChunkBytes}) {
    const ReadOutcome got = read_outcome([&] {
      std::istringstream in(text);
      return TraceReader(in, chunk).read_all();
    });
    if (!(got == expected)) report_difference(text, chunk, expected, got);
  }
  if (expected.ok) check_compression(expected);
  return 0;
}
