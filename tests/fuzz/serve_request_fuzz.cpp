// Fuzz target for the serve request codecs (serve/protocol.hpp).
//
// Every input is taken apart as a connection's receive buffer in both wire
// modes, the way the daemon does it (take_request: decode_frame, then
// parse_explore_request on kExplore payloads; or line splitting, then
// parse_json_request).  It is also parsed whole, once as a kExplore payload
// and once as a JSON request.  Every request that decodes must re-encode
// through the same codec and decode back to an equal Request, consuming
// exactly the re-encoded bytes, and ok and error replies to it must survive
// encode_reply/take_reply the same way.  Any difference, or a rejection
// without an error code, aborts.
//
// With clang and -DADDM_FUZZ=ON this links against libFuzzer
// (-fsanitize=fuzzer); otherwise replay_main.cpp replays the checked-in
// seed corpus through the same entry point as a ctest.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "serve/protocol.hpp"

namespace {

using namespace addm::serve;

[[noreturn]] void fail(const char* what, WireMode mode, const std::string& input) {
  std::fprintf(stderr, "%s (%s mode)\n--- input (%zu bytes)\n%s\n---\n", what,
               mode == WireMode::kJson ? "json" : "binary", input.size(), input.c_str());
  std::abort();
}

bool same_reply(const Reply& a, const Reply& b) {
  return a.ok == b.ok && a.error.code == b.error.code &&
         a.error.message == b.error.message && a.body == b.body &&
         a.summary.traces == b.summary.traces &&
         a.summary.evaluations == b.summary.evaluations &&
         a.summary.cache_hits == b.summary.cache_hits &&
         a.summary.disk_hits == b.summary.disk_hits && a.summary.errors == b.summary.errors;
}

// A decoded request re-encodes and decodes back to itself, and replies to
// it (carrying the input bytes as body and error message) do the same.
void check_round_trip(WireMode mode, const Request& req, const std::string& input) {
  std::string wire = encode_request(mode, req);
  Request back;
  ErrorInfo error;
  if (take_request(mode, wire, back, error) != TakeStatus::kDone || !wire.empty() ||
      !(back == req))
    fail("request did not round-trip", mode, input);

  Reply ok;
  ok.ok = true;
  ok.body = input;
  if (req.kind == RequestKind::kExplore) ok.summary = {input.size(), 1, 2, 3, 4};
  Reply refused;
  refused.error = {"bad-request", input};
  for (const Reply& reply : {ok, refused}) {
    wire = encode_reply(mode, req.kind, reply);
    Reply got;
    std::string why;
    if (take_reply(mode, wire, req.kind, got, why) != TakeStatus::kDone || !wire.empty() ||
        !same_reply(got, reply))
      fail("reply did not round-trip", mode, input);
  }
}

// The daemon's view: requests taken off one receive buffer until it needs
// more bytes or must close.
void take_all(WireMode mode, const std::string& input) {
  std::string buf = input;
  for (;;) {
    Request req;
    ErrorInfo error;
    const TakeStatus st = take_request(mode, buf, req, error);
    if (st == TakeStatus::kNeedMore) return;
    if (st != TakeStatus::kDone) {
      if (error.code.empty()) fail("rejection without an error code", mode, input);
      if (st == TakeStatus::kClose) return;
      continue;
    }
    check_round_trip(mode, req, input);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string input(reinterpret_cast<const char*>(data), size);
  take_all(WireMode::kBinary, input);
  take_all(WireMode::kJson, input);

  std::string error;
  Request whole;
  whole.kind = RequestKind::kExplore;
  if (parse_explore_request(input, whole.explore, error))
    check_round_trip(WireMode::kBinary, whole, input);
  if (parse_json_request(input, whole, error)) check_round_trip(WireMode::kJson, whole, input);
  return 0;
}
