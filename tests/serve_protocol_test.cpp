// Wire-protocol tests for the addm_serve daemon (serve/protocol.hpp):
// frame encode/decode round trips, the explore-request grammar, the JSON
// fallback, and — the robustness core — a deterministic fuzz pass feeding
// truncations, bit flips, hostile lengths, and garbage at every parser.
// The decoder/parsers must classify every input as a frame, a need-more
// prefix, or malformed, without crashing, hanging, or over-reading.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/explore_flags.hpp"
#include "core/fingerprint.hpp"
#include "serve/protocol.hpp"

namespace addm::serve {
namespace {

// Deterministic xorshift so fuzz failures reproduce exactly.
struct Rng {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

TEST(ServeFrame, RoundTripsAllTypes) {
  for (std::uint8_t type : {kExplore, kAdmin, kPing, kChunk, kDone, kError,
                            kPong, kAdminDone}) {
    const std::string payload = "payload for " + std::to_string(type);
    const std::string wire = encode_frame(type, payload);
    ASSERT_EQ(wire.size(), kFrameHeaderSize + payload.size());
    Frame f;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(wire, f, consumed), DecodeStatus::kFrame);
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(f.type, type);
    EXPECT_EQ(f.payload, payload);
  }
}

TEST(ServeFrame, EmptyPayloadAndBackToBackFrames) {
  const std::string wire = encode_frame(kPing, "") + encode_frame(kPong, "x");
  Frame f;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(wire, f, consumed), DecodeStatus::kFrame);
  EXPECT_EQ(f.type, kPing);
  EXPECT_EQ(f.payload, "");
  const std::string rest = wire.substr(consumed);
  ASSERT_EQ(decode_frame(rest, f, consumed), DecodeStatus::kFrame);
  EXPECT_EQ(f.type, kPong);
  EXPECT_EQ(f.payload, "x");
}

TEST(ServeFrame, EveryTruncationIsNeedMore) {
  const std::string wire = encode_frame(kExplore, "format csv\nsuite 1 8x8\n");
  Frame f;
  std::size_t consumed = 0;
  for (std::size_t n = 0; n < wire.size(); ++n) {
    EXPECT_EQ(decode_frame(std::string_view(wire).substr(0, n), f, consumed),
              DecodeStatus::kNeedMore)
        << "prefix length " << n;
  }
}

TEST(ServeFrame, BadMagicIsMalformedImmediately) {
  Frame f;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(decode_frame("B", f, consumed, &error), DecodeStatus::kMalformed);
  EXPECT_EQ(error, "bad frame magic");
  EXPECT_EQ(decode_frame("ADSX____", f, consumed), DecodeStatus::kMalformed);
  EXPECT_EQ(decode_frame("{\"op\":\"ping\"}", f, consumed),
            DecodeStatus::kMalformed);
}

TEST(ServeFrame, WrongVersionAndReservedBytesAreMalformed) {
  std::string wire = encode_frame(kPing, "");
  wire[4] = 2;  // future version
  Frame f;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(decode_frame(wire, f, consumed, &error), DecodeStatus::kMalformed);
  EXPECT_EQ(error, "unsupported protocol version");

  wire = encode_frame(kPing, "");
  wire[6] = 1;  // reserved byte
  EXPECT_EQ(decode_frame(wire, f, consumed), DecodeStatus::kMalformed);
}

TEST(ServeFrame, OversizedLengthIsRejectedBeforeBuffering) {
  // Header claims 4 GiB-ish payload: must be malformed from the header
  // alone, never need-more (that would make a hostile client park 64 MiB+
  // in the daemon's buffer per connection).
  std::string wire = encode_frame(kExplore, "");
  wire[8] = static_cast<char>(0xff);
  wire[9] = static_cast<char>(0xff);
  wire[10] = static_cast<char>(0xff);
  wire[11] = static_cast<char>(0x7f);
  Frame f;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(decode_frame(wire, f, consumed, &error), DecodeStatus::kMalformed);
  EXPECT_EQ(error, "frame payload exceeds 64 MiB cap");
}

TEST(ServeFrame, FuzzedBytesNeverCrashAndClassifyConsistently) {
  Rng rng;
  for (int iter = 0; iter < 2000; ++iter) {
    // Mix of pure garbage and corrupted real frames.
    std::string input;
    if (iter % 2 == 0) {
      const std::size_t len = rng.next() % 64;
      for (std::size_t i = 0; i < len; ++i)
        input.push_back(static_cast<char>(rng.next() & 0xff));
    } else {
      input = encode_frame(static_cast<std::uint8_t>(rng.next() & 0xff),
                           "fuzz payload");
      const std::size_t flips = 1 + rng.next() % 4;
      for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t pos = rng.next() % input.size();
        input[pos] = static_cast<char>(input[pos] ^ (1u << (rng.next() % 8)));
      }
      input = input.substr(0, rng.next() % (input.size() + 1));
    }
    Frame f;
    std::size_t consumed = 0;
    const DecodeStatus st = decode_frame(input, f, consumed);
    if (st == DecodeStatus::kFrame) {
      EXPECT_LE(consumed, input.size());
      EXPECT_GE(consumed, kFrameHeaderSize);
    }
    // A classified prefix must stay stable as bytes are appended: a
    // malformed buffer can never become a frame by reading more.
    if (st == DecodeStatus::kMalformed) {
      std::string more = input + "extra bytes";
      EXPECT_EQ(decode_frame(more, f, consumed), DecodeStatus::kMalformed);
    }
  }
}

TEST(ServeExploreRequest, RoundTripsThroughGrammar) {
  ExploreRequest req;
  req.format = "json";
  req.suite_scales = 3;
  req.suite_base = {16, 4};
  req.options.emplace_back("no-fsm", "");
  req.options.emplace_back("max-fanout", "6");
  req.options.emplace_back("archs", "SRAG");
  TraceSource path;
  path.kind = TraceSource::Kind::kPath;
  path.name = "/tmp/some trace file.trace";
  req.traces.push_back(path);
  TraceSource inl;
  inl.kind = TraceSource::Kind::kInline;
  inl.name = "mytrace";
  inl.data = "geometry 4x4\n0 1 2 3\n";  // embedded newlines must survive
  req.traces.push_back(inl);

  ExploreRequest parsed;
  std::string error;
  ASSERT_TRUE(parse_explore_request(encode_explore_request(req), parsed, error))
      << error;
  EXPECT_EQ(parsed.format, "json");
  EXPECT_EQ(parsed.suite_scales, 3u);
  EXPECT_EQ(parsed.suite_base.width, 16u);
  EXPECT_EQ(parsed.suite_base.height, 4u);
  ASSERT_EQ(parsed.options.size(), 3u);
  EXPECT_EQ(parsed.options[1].second, "6");
  ASSERT_EQ(parsed.traces.size(), 2u);
  EXPECT_EQ(parsed.traces[0].name, "/tmp/some trace file.trace");
  EXPECT_EQ(parsed.traces[1].name, "mytrace");
  EXPECT_EQ(parsed.traces[1].data, inl.data);
}

TEST(ServeExploreRequest, RejectsMalformedDirectives) {
  ExploreRequest out;
  std::string error;
  EXPECT_FALSE(parse_explore_request("bogus directive\n", out, error));
  EXPECT_FALSE(parse_explore_request("format xml\nsuite 1 8x8\n", out, error));
  EXPECT_FALSE(parse_explore_request("suite 0 8x8\n", out, error));
  EXPECT_FALSE(parse_explore_request("suite 1 8x0\n", out, error));
  EXPECT_FALSE(parse_explore_request("suite 1 8x8\nsuite 1 8x8\n", out, error));
  EXPECT_FALSE(parse_explore_request("option bogus-knob 1\nsuite 1 8x8\n", out, error));
  EXPECT_FALSE(parse_explore_request("option no-fsm yes\nsuite 1 8x8\n", out, error));
  EXPECT_FALSE(parse_explore_request("option archs NotAnArch\nsuite 1 8x8\n", out, error));
  EXPECT_FALSE(parse_explore_request("trace inline 10 t\nshort\n", out, error));
  EXPECT_EQ(error, "truncated inline trace data");
  // Directive as the final line with no trailing newline and no data: the
  // scanner's pos is payload.size() + 1 here, so the truncation check must
  // not underflow into an out-of-bounds read (TSan-caught regression).
  EXPECT_FALSE(parse_explore_request("trace inline 5 t", out, error));
  EXPECT_EQ(error, "truncated inline trace data");
  EXPECT_FALSE(parse_explore_request("trace inline 5 t\n12345missing-newline",
                                     out, error));
  EXPECT_FALSE(parse_explore_request("trace ftp host\n", out, error));
  EXPECT_FALSE(parse_explore_request("", out, error));
  EXPECT_EQ(error, "no input traces (use suite or trace directives)");
  EXPECT_FALSE(parse_explore_request("format csv\n", out, error));
}

TEST(ServeExploreRequest, FuzzedPayloadsNeverCrash) {
  Rng rng;
  const std::string seed = encode_explore_request([] {
    ExploreRequest r;
    r.suite_scales = 2;
    r.options.emplace_back("minimizer", "auto");
    TraceSource t;
    t.kind = TraceSource::Kind::kInline;
    t.data = "geometry 2x2\n0 1\n";
    r.traces.push_back(t);
    return r;
  }());
  for (int iter = 0; iter < 2000; ++iter) {
    std::string input = seed;
    const std::size_t flips = 1 + rng.next() % 6;
    for (std::size_t i = 0; i < flips; ++i)
      input[rng.next() % input.size()] =
          static_cast<char>(rng.next() & 0xff);
    input = input.substr(0, rng.next() % (input.size() + 1));
    ExploreRequest out;
    std::string error;
    parse_explore_request(input, out, error);  // must not crash or throw
  }
}

TEST(ServeOptions, DefaultRequestYieldsDefaultOptions) {
  // The pinned-fingerprint property: an optionless request must produce an
  // ExploreOptions whose fingerprint equals the CLI default's.
  ExploreRequest req;
  req.suite_scales = 1;
  core::ExploreOptions opt;
  std::string error;
  ASSERT_TRUE(build_explore_options(req, opt, error)) << error;
  EXPECT_EQ(core::options_fingerprint(opt),
            core::options_fingerprint(core::ExploreOptions{}));
}

// Outcome of one option spelling: the fingerprint it reaches, or the error
// that rejected it.
struct Spelled {
  bool ok = false;
  std::uint64_t fingerprint = 0;
  std::string error;
};

// The command-line spelling as far as the table goes: the argument `--KEY`
// selects the entry and the next argument is its value.  The tools' argv
// loops around this call are driven by serve_smoke.sh.
Spelled via_table(const std::string& key, const std::string& value) {
  const std::string arg = "--" + key;
  const core::ExploreFlag* f = core::explore_flag_arg(arg);
  Spelled s;
  core::ExploreOptions opt;
  s.ok = core::apply_explore_option(opt, f ? f->name : std::string_view(arg).substr(2),
                                    value, s.error);
  if (s.ok) s.fingerprint = core::options_fingerprint(opt);
  return s;
}

// A wire spelling: the binary `option` directive or the JSON `options`
// member, through its request codec.
Spelled via_wire(bool json, const std::string& key, const std::string& value) {
  ExploreRequest req;
  req.suite_scales = 1;
  req.options.emplace_back(key, value);
  JsonRequest back;
  Spelled s;
  core::ExploreOptions opt;
  s.ok = (json ? parse_json_request(json_explore_request(req), back, s.error)
               : parse_explore_request(encode_explore_request(req), back.explore,
                                       s.error)) &&
         build_explore_options(back.explore, opt, s.error);
  if (s.ok) s.fingerprint = core::options_fingerprint(opt);
  return s;
}

TEST(ServeOptions, AppliesEveryKey) {
  // Every table entry must reach the same options through all three
  // spellings, and every rejected value must be rejected with one message.
  // The shared values are tried against every entry, so a new entry is
  // covered as long as one of them is valid for it and one is out of range.
  const std::vector<std::string> values = {
      "2", "7", "24", "auto", "SRAG,CntAG-flat", "0", "1", "25",
      "4294967298", "18446744073709551616", "magic", "SRAG,NoSuch", ",", "-3"};
  // Each entry's range edges, with the verdict they must get.
  const std::vector<std::tuple<std::string, std::string, bool>> pinned = {
      {"max-fanout", "2", true},          {"max-fanout", "2147483647", true},
      {"max-fanout", "0", false},         {"max-fanout", "1", false},
      {"max-fanout", "2147483648", false}, {"max-fanout", "4294967298", false},
      {"max-fsm-states", "0", true},      {"max-fsm-states", "18446744073709551615", true},
      {"max-fsm-states", "18446744073709551616", false}, {"max-fsm-states", "-3", false},
      {"no-fsm", "", true},               {"no-fsm", "x", false},
      {"archs", "SRAG,CntAG-flat", true}, {"archs", "SRAG,NoSuch", false},
      {"archs", ",", false},              {"verify-front", "", true},
      {"verify-front", "1", false},       {"minimizer", "auto", true},
      {"minimizer", "magic", false},      {"minimizer", "", false},
      {"espresso-threshold", "1", true},  {"espresso-threshold", "24", true},
      {"espresso-threshold", "0", false}, {"espresso-threshold", "25", false},
      {"compress-periodic", "", true},    {"compress-periodic", "x", false}};
  std::size_t pinned_seen = 0;
  for (const core::ExploreFlag& f : core::explore_flags()) {
    const std::string key(f.name);
    std::vector<std::string> samples = f.metavar.empty() ? std::vector<std::string>{""} : values;
    for (const auto& [k, v, ok] : pinned)
      if (k == key && std::find(samples.begin(), samples.end(), v) == samples.end())
        samples.push_back(v);
    std::size_t accepted = 0, rejected = 0;
    for (const std::string& v : samples) {
      const Spelled argv = via_table(key, v);
      const Spelled binary = via_wire(false, key, v);
      const Spelled json = via_wire(true, key, v);
      SCOPED_TRACE("--" + key + " '" + v + "'");
      for (const auto& [k, pv, ok] : pinned) {
        if (k == key && pv == v) {
          EXPECT_EQ(argv.ok, ok) << argv.error;
          ++pinned_seen;
        }
      }
      ASSERT_EQ(argv.ok, binary.ok) << binary.error;
      ASSERT_EQ(argv.ok, json.ok) << json.error;
      if (argv.ok) {
        ++accepted;
        EXPECT_EQ(argv.fingerprint, binary.fingerprint);
        EXPECT_EQ(argv.fingerprint, json.fingerprint);
      } else {
        ++rejected;
        // Key first, so the CLI's "--" prefix names the flag; only the
        // table's arity errors, which the tools never reach, differ.
        if (f.metavar.empty() == v.empty())
          EXPECT_EQ(argv.error.rfind(key, 0), 0u) << argv.error;
        EXPECT_EQ(argv.error, binary.error);
        EXPECT_EQ(argv.error, json.error);
      }
    }
    EXPECT_GT(accepted, 0u) << key << ": no sample value is valid";
    EXPECT_GT(rejected, 0u) << key << ": no sample value is rejected";
  }
  // Every pinned row names a table entry.
  EXPECT_EQ(pinned_seen, pinned.size());
  const Spelled argv = via_table("threads", "4");
  EXPECT_FALSE(argv.ok);
  EXPECT_EQ(argv.error, "unknown option 'threads'");
  EXPECT_EQ(via_wire(false, "threads", "4").error, argv.error);
  EXPECT_EQ(via_wire(true, "threads", "4").error, argv.error);
}

TEST(ServeOptions, TableSpellingsSetTheirFields) {
  core::ExploreOptions opt;
  std::string error;
  auto apply = [&](const char* key, const char* value) {
    return core::apply_explore_option(opt, key, value, error);
  };
  EXPECT_TRUE(apply("no-fsm", ""));
  EXPECT_FALSE(opt.include_fsm);
  EXPECT_TRUE(apply("verify-front", ""));
  EXPECT_TRUE(opt.verify_front);
  EXPECT_TRUE(apply("compress-periodic", ""));
  EXPECT_TRUE(opt.compress_periodic);
  EXPECT_TRUE(apply("max-fsm-states", "77"));
  EXPECT_EQ(opt.max_fsm_states, 77u);
  EXPECT_TRUE(apply("max-fanout", "5"));
  EXPECT_EQ(opt.max_fanout, 5);
  EXPECT_TRUE(apply("espresso-threshold", "9"));
  EXPECT_EQ(opt.minimize.heuristic_min_vars, 9);
  EXPECT_TRUE(apply("minimizer", "espresso"));
  EXPECT_EQ(opt.minimize.algo, logic::MinimizerAlgo::Espresso);
  EXPECT_TRUE(apply("archs", "SRAG,CntAG-flat"));
  ASSERT_EQ(opt.archs.size(), 2u);

  // tech::insert_buffers needs a fanout of at least 2, and the value must
  // fit an int rather than wrap.
  EXPECT_FALSE(apply("max-fanout", "1"));
  EXPECT_FALSE(apply("max-fanout", "4294967298"));
  EXPECT_TRUE(apply("max-fanout", "2147483647"));
  EXPECT_FALSE(apply("max-fanout", "2147483648"));
  EXPECT_FALSE(apply("no-fsm", "x"));
  EXPECT_EQ(error, "option 'no-fsm' takes no value");
  EXPECT_FALSE(apply("minimizer", ""));
  EXPECT_EQ(error, "option 'minimizer' requires a value");

  // The usage text spells out a default that no static_assert can pin.
  EXPECT_NE(core::explore_flags_usage().find(
                "(default " + std::to_string(core::ExploreOptions{}.max_fsm_states) + ")"),
            std::string::npos);
}

TEST(ServeSummary, DoneRoundTrip) {
  ExploreSummary s;
  s.traces = 9;
  s.evaluations = 5;
  s.cache_hits = 3;
  s.disk_hits = 1;
  s.errors = 2;
  ExploreSummary parsed;
  ASSERT_TRUE(parse_done(encode_done(s), parsed));
  EXPECT_EQ(parsed.traces, 9u);
  EXPECT_EQ(parsed.evaluations, 5u);
  EXPECT_EQ(parsed.cache_hits, 3u);
  EXPECT_EQ(parsed.disk_hits, 1u);
  EXPECT_EQ(parsed.errors, 2u);
  // Unknown keys are tolerated (forward compatibility), garbage is not.
  ASSERT_TRUE(parse_done("traces 1\nfuture_field 7\n", parsed));
  EXPECT_FALSE(parse_done("traces one\n", parsed));
}

TEST(ServeError, RoundTrip) {
  ErrorInfo e{"bad-request", "line 3: unknown directive\nwith detail"};
  ErrorInfo parsed;
  ASSERT_TRUE(parse_error(encode_error(e), parsed));
  EXPECT_EQ(parsed.code, "bad-request");
  EXPECT_EQ(parsed.message, e.message);
  EXPECT_FALSE(parse_error("", parsed));
}

TEST(ServeJson, ParsesScalarsAndStructures) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(parse_json(" {\"a\":[1,2.5,-3],\"b\":{\"c\":true,\"d\":null},"
                         "\"s\":\"he\\nllo\\u0041\"} ",
                         v, error))
      << error;
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  std::uint64_t n = 0;
  EXPECT_TRUE(a->array[0].as_u64(n));
  EXPECT_EQ(n, 1u);
  EXPECT_FALSE(a->array[1].as_u64(n));  // fractional
  EXPECT_FALSE(a->array[2].as_u64(n));  // negative
  EXPECT_EQ(v.find("b")->find("c")->boolean, true);
  EXPECT_EQ(v.find("s")->string, "he\nlloA");
}

TEST(ServeJson, RejectsMalformedDocuments) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(parse_json("", v, error));
  EXPECT_FALSE(parse_json("{", v, error));
  EXPECT_FALSE(parse_json("{\"a\":}", v, error));
  EXPECT_FALSE(parse_json("[1,2,]", v, error));
  EXPECT_FALSE(parse_json("\"unterminated", v, error));
  EXPECT_FALSE(parse_json("truex", v, error));
  EXPECT_FALSE(parse_json("{} trailing", v, error));
  EXPECT_FALSE(parse_json("\"\\u00e9\"", v, error));  // non-ASCII escape
  // Depth cap: 40 nested arrays exceed the 32-level limit.
  std::string deep(40, '[');
  deep += std::string(40, ']');
  EXPECT_FALSE(parse_json(deep, v, error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos);
}

TEST(ServeJson, FuzzedDocumentsNeverCrash) {
  Rng rng;
  const std::string seed =
      "{\"op\":\"explore\",\"suite\":{\"scales\":1,\"base\":\"8x8\"},"
      "\"options\":{\"no-fsm\":true},\"traces\":[{\"inline\":\"x\"}]}";
  for (int iter = 0; iter < 2000; ++iter) {
    std::string input = seed;
    const std::size_t flips = 1 + rng.next() % 6;
    for (std::size_t i = 0; i < flips; ++i)
      input[rng.next() % input.size()] =
          static_cast<char>(rng.next() & 0xff);
    input = input.substr(0, rng.next() % (input.size() + 1));
    JsonRequest out;
    std::string error;
    parse_json_request(input, out, error);  // must not crash or throw
  }
}

TEST(ServeJson, RequestRoundTrip) {
  ExploreRequest req;
  req.format = "json";
  req.suite_scales = 2;
  req.suite_base = {8, 16};
  req.options.emplace_back("no-fsm", "");
  req.options.emplace_back("max-fsm-states", "64");
  req.options.emplace_back("archs", "SRAG");
  TraceSource t;
  t.kind = TraceSource::Kind::kInline;
  t.name = "inline0";
  t.data = "geometry 2x2\n0 1 2 3\n";
  req.traces.push_back(t);

  JsonRequest parsed;
  std::string error;
  ASSERT_TRUE(parse_json_request(json_explore_request(req), parsed, error))
      << error;
  ASSERT_EQ(parsed.kind, JsonRequestKind::kExplore);
  EXPECT_EQ(parsed.explore.format, "json");
  EXPECT_EQ(parsed.explore.suite_scales, 2u);
  EXPECT_EQ(parsed.explore.suite_base.height, 16u);
  ASSERT_EQ(parsed.explore.options.size(), 3u);
  EXPECT_EQ(parsed.explore.options[0].first, "no-fsm");
  EXPECT_EQ(parsed.explore.options[0].second, "");
  EXPECT_EQ(parsed.explore.options[1].second, "64");
  ASSERT_EQ(parsed.explore.traces.size(), 1u);
  EXPECT_EQ(parsed.explore.traces[0].data, t.data);

  JsonRequest admin;
  ASSERT_TRUE(parse_json_request(json_admin_request("prune 10 0"), admin, error));
  ASSERT_EQ(admin.kind, JsonRequestKind::kAdmin);
  EXPECT_EQ(admin.admin_command, "prune 10 0");

  JsonRequest ping;
  ASSERT_TRUE(parse_json_request(json_ping_request(), ping, error));
  EXPECT_EQ(ping.kind, JsonRequestKind::kPing);
}

TEST(ServeJson, RequestValidation) {
  JsonRequest out;
  std::string error;
  EXPECT_FALSE(parse_json_request("[]", out, error));
  EXPECT_FALSE(parse_json_request("{}", out, error));
  EXPECT_FALSE(parse_json_request("{\"op\":\"fly\"}", out, error));
  EXPECT_FALSE(parse_json_request("{\"op\":\"admin\"}", out, error));
  EXPECT_FALSE(parse_json_request("{\"op\":\"explore\"}", out, error));
  EXPECT_FALSE(parse_json_request(
      "{\"op\":\"explore\",\"suite\":{\"scales\":0}}", out, error));
  EXPECT_FALSE(parse_json_request(
      "{\"op\":\"explore\",\"suite\":{\"scales\":1},\"options\":"
      "{\"no-fsm\":false}}",
      out, error));
  EXPECT_FALSE(parse_json_request(
      "{\"op\":\"explore\",\"traces\":[{\"path\":\"a\",\"inline\":\"b\"}]}",
      out, error));
  EXPECT_TRUE(parse_json_request(
      "{\"op\":\"explore\",\"suite\":{\"scales\":1},\"options\":"
      "{\"archs\":[\"SRAG\",\"CntAG-flat\"]}}",
      out, error))
      << error;
  ASSERT_EQ(out.explore.options.size(), 1u);
  EXPECT_EQ(out.explore.options[0].second, "SRAG,CntAG-flat");
}

TEST(ServeJson, EscapeProducesParseableStrings) {
  std::string nasty;
  for (int c = 0; c < 256; ++c) nasty.push_back(static_cast<char>(c));
  const std::string line = "\"" + json_escape(nasty) + "\"";
  JsonValue v;
  std::string error;
  ASSERT_TRUE(parse_json(line, v, error)) << error;
  EXPECT_EQ(v.string, nasty);
}

// Each codec's request-taking rules, as the daemon applies them to one
// connection's receive buffer.
TEST(ServeCodec, TakeRequestFollowsEachModesRules) {
  auto take = [](WireMode mode, std::string& buf, Request& req, ErrorInfo& err) {
    err = {};
    return take_request(mode, buf, req, err);
  };
  Request req;
  ErrorInfo err;

  // Binary: admin payloads lose trailing CR/LF; ping payloads are ignored;
  // a reply type is unsupported but the stream goes on; a bad explore
  // payload is a bad request; garbage closes.
  std::string buf = encode_frame(kAdmin, "prune 10 0\r\n") + encode_frame(kPing, "x") +
                    encode_frame(kPong, "") + encode_frame(kExplore, "bogus\n") + "junk";
  ASSERT_EQ(take(WireMode::kBinary, buf, req, err), TakeStatus::kDone);
  EXPECT_EQ(req.kind, RequestKind::kAdmin);
  EXPECT_EQ(req.admin_command, "prune 10 0");
  ASSERT_EQ(take(WireMode::kBinary, buf, req, err), TakeStatus::kDone);
  EXPECT_EQ(req, Request{});
  ASSERT_EQ(take(WireMode::kBinary, buf, req, err), TakeStatus::kError);
  EXPECT_EQ(err.code, "unsupported");
  EXPECT_EQ(err.message, "unexpected frame type 19");
  ASSERT_EQ(take(WireMode::kBinary, buf, req, err), TakeStatus::kError);
  EXPECT_EQ(err.code, "bad-request");
  ASSERT_EQ(take(WireMode::kBinary, buf, req, err), TakeStatus::kClose);
  EXPECT_EQ(err.code, "malformed-frame");
  EXPECT_EQ(err.message, "bad frame magic");

  // JSON: a trailing CR goes, empty lines are skipped, a bad line is a bad
  // request and the next line still decodes; admin commands are kept as
  // sent; a partial line waits for more bytes.
  buf = "\r\n\n{\"op\":\"ping\"}\r\nnot json\n{\"op\":\"admin\",\"command\":\"flush\\r\"}\n{";
  ASSERT_EQ(take(WireMode::kJson, buf, req, err), TakeStatus::kDone);
  EXPECT_EQ(req.kind, RequestKind::kPing);
  ASSERT_EQ(take(WireMode::kJson, buf, req, err), TakeStatus::kError);
  EXPECT_EQ(err.code, "bad-request");
  ASSERT_EQ(take(WireMode::kJson, buf, req, err), TakeStatus::kDone);
  EXPECT_EQ(req.admin_command, "flush\r");
  EXPECT_EQ(take(WireMode::kJson, buf, req, err), TakeStatus::kNeedMore);
  EXPECT_EQ(buf, "{");

  // A partial line over the 64 MiB cap closes the connection.
  buf.assign(kMaxFramePayload + 1, ' ');
  ASSERT_EQ(take(WireMode::kJson, buf, req, err), TakeStatus::kClose);
  EXPECT_EQ(err.code, "bad-request");
  EXPECT_EQ(err.message, "request line exceeds the 64 MiB cap");
}

TEST(ServeCodec, RepliesCarryEachKindInBothModes) {
  Reply ok;
  ok.ok = true;
  ok.body = std::string(3u << 20, 'r');  // three full kChunk frames
  ok.summary = {9, 7, 2, 0, 1};
  Reply refused;
  refused.error = {"io", "no such file\nsecond line"};
  for (WireMode mode : {WireMode::kBinary, WireMode::kJson}) {
    for (RequestKind kind : {RequestKind::kExplore, RequestKind::kAdmin, RequestKind::kPing}) {
      for (const Reply& sent : {ok, refused}) {
        std::string wire = encode_reply(mode, kind, sent);
        Reply got;
        std::string error;
        ASSERT_EQ(take_reply(mode, wire, kind, got, error), TakeStatus::kDone) << error;
        EXPECT_TRUE(wire.empty());
        EXPECT_EQ(got.ok, sent.ok);
        EXPECT_EQ(got.error.code, sent.error.code);
        EXPECT_EQ(got.error.message, sent.error.message);
        EXPECT_EQ(got.body, sent.body);
        const bool summary = sent.ok && kind == RequestKind::kExplore;
        EXPECT_EQ(got.summary.traces, summary ? 9u : 0u);
        EXPECT_EQ(got.summary.errors, summary ? 1u : 0u);
      }
    }
  }
  // The binary explore reply is 1 MiB kChunk frames, then kDone.
  std::string wire = encode_reply(WireMode::kBinary, RequestKind::kExplore, ok);
  Frame f;
  std::size_t consumed = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(decode_frame(wire, f, consumed), DecodeStatus::kFrame);
    EXPECT_EQ(f.type, kChunk);
    EXPECT_EQ(f.payload.size(), 1u << 20);
    wire.erase(0, consumed);
  }
  ASSERT_EQ(decode_frame(wire, f, consumed), DecodeStatus::kFrame);
  EXPECT_EQ(f.type, kDone);
  EXPECT_EQ(consumed, wire.size());
}

}  // namespace
}  // namespace addm::serve
