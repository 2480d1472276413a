// In-process end-to-end tests for the addm_serve daemon (serve/server.hpp):
// a real Server on a loopback socket, driven by the real ServeClient.
//
// The load-bearing assertions:
//  * Byte-equality: the served report body equals the offline
//    BatchExplorer/report-renderer output for the same traces and options —
//    cold, memo-warm, across option sets, and in both wire modes.
//  * Robustness: garbage bytes, hostile frames, and mid-stream disconnects
//    cost at most one connection, never the daemon.
//  * Lifecycle: admin shutdown and --max-requests both drain cleanly to
//    exit code 0, flushing pending cache state.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_explorer.hpp"
#include "core/eval_cache.hpp"
#include "seq/trace_io.hpp"
#include "seq/workloads.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace addm::serve {
namespace {

// One daemon on an ephemeral loopback port, its accept loop on a thread.
struct TestServer {
  ExploreService service;
  Server server;
  std::thread thread;
  int exit_code = -1;

  explicit TestServer(ServiceOptions so = {}, ServerOptions vo = {})
      : service(std::move(so)), server(service, [&vo] {
          vo.unix_path.clear();
          vo.tcp_port = 0;
          vo.quiet = true;
          return vo;
        }()) {
    std::string error;
    EXPECT_TRUE(server.start(error)) << error;
    thread = std::thread([this] { exit_code = server.run(); });
  }

  ~TestServer() { stop(); }

  void stop() {
    if (thread.joinable()) {
      server.request_stop();
      thread.join();
    }
  }

  ServeClient connect(bool json = false) {
    ServeClient c;
    c.set_json_mode(json);
    std::string error;
    EXPECT_TRUE(c.connect_tcp("127.0.0.1", server.bound_port(), error)) << error;
    return c;
  }
};

// The offline reference: what addm_explore would print for the same traces
// and options (the BatchExplorer determinism contract makes one local run
// a valid stand-in for the CLI).
std::string offline_report(const std::vector<seq::AddressTrace>& traces,
                           const core::ExploreOptions& explore,
                           bool json = false) {
  core::BatchOptions opt;
  opt.explore = explore;
  core::BatchExplorer explorer(opt);
  const core::BatchResult result = explorer.run(traces);
  return json ? core::batch_report_json(result) : core::batch_report_csv(result);
}

ExploreRequest suite_request(std::size_t scales = 1) {
  ExploreRequest req;
  req.suite_scales = scales;
  return req;
}

// Raw socket for hostile-input tests (the real client refuses to send
// malformed bytes, so these speak socket directly).
struct RawConn {
  int fd = -1;
  explicit RawConn(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  void send_bytes(std::string_view data) {
    ASSERT_EQ(::send(fd, data.data(), data.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(data.size()));
  }
  // Signals end-of-requests; the server replies to what it has read, sees
  // EOF, and closes — which is what unblocks drain() on keep-alive errors.
  void half_close() { ::shutdown(fd, SHUT_WR); }
  // Reads until the peer closes; returns everything received.
  std::string drain() {
    std::string out;
    char tmp[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
      if (n <= 0) break;
      out.append(tmp, static_cast<std::size_t>(n));
    }
    return out;
  }
};

TEST(ServeServer, ServedReportMatchesOfflineRunByteForByte) {
  TestServer ts;
  ServeClient client = ts.connect();

  ServeClient::Result result;
  std::string error;
  ASSERT_TRUE(client.explore(suite_request(), result, error)) << error;
  ASSERT_TRUE(result.ok) << result.error.code << ": " << result.error.message;

  const auto traces = seq::scaled_suite({8, 8}, 1);
  EXPECT_EQ(result.body, offline_report(traces, {}));
  EXPECT_EQ(result.summary.traces, traces.size());
  EXPECT_EQ(result.summary.errors, 0u);
}

TEST(ServeServer, WarmMemoServesRepeatsWithoutReevaluating) {
  TestServer ts;
  ServeClient c1 = ts.connect();
  ServeClient::Result first, second;
  std::string error;
  ASSERT_TRUE(c1.explore(suite_request(), first, error)) << error;
  ASSERT_TRUE(first.ok);
  EXPECT_GT(first.summary.evaluations, 0u);

  // A fresh connection hits the same shared memo table.
  ServeClient c2 = ts.connect();
  ASSERT_TRUE(c2.explore(suite_request(), second, error)) << error;
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.summary.evaluations, 0u);
  EXPECT_EQ(second.summary.cache_hits, second.summary.traces);
  EXPECT_EQ(second.body, first.body);
}

TEST(ServeServer, PerRequestOptionsCoexistAndMatchOffline) {
  TestServer ts;
  ServeClient client = ts.connect();
  std::string error;

  ExploreRequest no_fsm = suite_request();
  no_fsm.options.emplace_back("no-fsm", "");
  ExploreRequest json_req = suite_request();
  json_req.format = "json";

  ServeClient::Result a, b, c;
  ASSERT_TRUE(client.explore(no_fsm, a, error)) << error;
  ASSERT_TRUE(client.explore(json_req, b, error)) << error;
  ASSERT_TRUE(client.explore(no_fsm, c, error)) << error;
  ASSERT_TRUE(a.ok && b.ok && c.ok);

  const auto traces = seq::scaled_suite({8, 8}, 1);
  core::ExploreOptions opt_no_fsm;
  opt_no_fsm.include_fsm = false;
  EXPECT_EQ(a.body, offline_report(traces, opt_no_fsm));
  EXPECT_EQ(b.body, offline_report(traces, {}, /*json=*/true));
  // Option sets share the memo keyed by (trace, options): the repeat of
  // the no-fsm request is served entirely from memory.
  EXPECT_EQ(c.summary.evaluations, 0u);
  EXPECT_EQ(c.body, a.body);
}

TEST(ServeServer, InlineAndPathTracesFollowCliNaming) {
  const std::string dir = testing::TempDir() + "serve_inline_traces";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/transpose_case.trace";
  const auto trace = [] {
    auto t = seq::transpose_read({4, 4});
    t.set_name("");  // force the file-stem naming rule
    return t;
  }();
  seq::write_trace_file(path, trace);

  TestServer ts;
  ServeClient client = ts.connect();
  std::string error;

  ExploreRequest req;
  TraceSource by_path;
  by_path.kind = TraceSource::Kind::kPath;
  by_path.name = path;
  req.traces.push_back(by_path);
  TraceSource by_inline;
  by_inline.kind = TraceSource::Kind::kInline;
  by_inline.name = "transpose_case";
  by_inline.data = seq::write_trace_string(trace);
  req.traces.push_back(by_inline);

  ServeClient::Result result;
  ASSERT_TRUE(client.explore(req, result, error)) << error;
  ASSERT_TRUE(result.ok) << result.error.message;

  auto named = trace;
  named.set_name("transpose_case");
  EXPECT_EQ(result.body, offline_report({named, named}, {}));
}

TEST(ServeServer, JsonModeProducesIdenticalReports) {
  TestServer ts;
  ServeClient binary = ts.connect(false);
  ServeClient json = ts.connect(true);
  std::string error;

  ServeClient::Result a, b;
  ASSERT_TRUE(binary.explore(suite_request(), a, error)) << error;
  ASSERT_TRUE(json.explore(suite_request(), b, error)) << error;
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(a.body, b.body);

  std::string banner;
  ASSERT_TRUE(json.ping(banner, error)) << error;
  EXPECT_EQ(banner, std::string(ts.service.banner()));
}

TEST(ServeServer, BadRequestsGetFramedErrorsAndConnectionSurvives) {
  TestServer ts;
  ServeClient client = ts.connect();
  std::string error;

  ExploreRequest empty;  // no traces: rejected at parse time
  ServeClient::Result result;
  ASSERT_TRUE(client.explore(empty, result, error)) << error;
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error.code, "bad-request");

  ExploreRequest missing = suite_request(0);
  TraceSource t;
  t.kind = TraceSource::Kind::kPath;
  t.name = testing::TempDir() + "does_not_exist.trace";
  missing.traces.push_back(t);
  ASSERT_TRUE(client.explore(missing, result, error)) << error;
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error.code, "io");

  // Same connection still serves good requests afterwards.
  ASSERT_TRUE(client.explore(suite_request(), result, error)) << error;
  EXPECT_TRUE(result.ok);
}

TEST(ServeServer, OversizedInlineGeometryIsAnIoErrorNotACrash) {
  // A width of 2^32 used to parse, then divide by zero in row_of() and
  // take the daemon down with SIGFPE.
  TestServer ts;
  ServeClient client = ts.connect();
  std::string error;

  for (const char* data : {"geometry 4294967296 1\n0 1 2 3\n",
                           "geometry 65536 65537\n4294967296 1 2 3\n"}) {
    ExploreRequest req;
    TraceSource t;
    t.kind = TraceSource::Kind::kInline;
    t.name = "huge";
    t.data = data;
    req.traces.push_back(t);
    ServeClient::Result result;
    ASSERT_TRUE(client.explore(req, result, error)) << error;
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error.code, "io");
    EXPECT_NE(result.error.message.find("is too large"), std::string::npos)
        << result.error.message;
  }

  // The daemon then serves the next request on the same connection.
  ServeClient::Result result;
  ASSERT_TRUE(client.explore(suite_request(), result, error)) << error;
  ASSERT_TRUE(result.ok) << result.error.message;
  EXPECT_EQ(result.body, offline_report(seq::scaled_suite({8, 8}, 1), {}));
}

TEST(ServeServer, OversizedSuiteIsAnIoErrorNotAnAllocation) {
  // An unaddressable suite base is refused before any trace is generated,
  // so the request cannot send the daemon into multi-GB allocations.
  TestServer ts;
  ServeClient client = ts.connect();
  std::string error;
  ExploreRequest req = suite_request(1);
  req.suite_base = {65536, 65538};
  ServeClient::Result result;
  ASSERT_TRUE(client.explore(req, result, error)) << error;
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error.code, "io");
  EXPECT_NE(result.error.message.find("suite geometry 65536x65538 is too large"),
            std::string::npos)
      << result.error.message;

  // The daemon then serves the next request on the same connection.
  ASSERT_TRUE(client.explore(suite_request(), result, error)) << error;
  ASSERT_TRUE(result.ok) << result.error.message;
  EXPECT_EQ(result.body, offline_report(seq::scaled_suite({8, 8}, 1), {}));
}

TEST(ServeServer, ServedSuiteOverTheFrameCeilingIsRefusedUpFront) {
  // 65536x65536 is addressable (exactly 2^32 cells) but would generate
  // 16 GiB per trace; served suites share the inline-trace ceiling of
  // kMaxFramePayload / 4 cells and are refused before generation.
  TestServer ts;
  ServeClient client = ts.connect();
  std::string error;
  ExploreRequest req = suite_request(1);
  req.suite_base = {65536, 65536};
  ServeClient::Result result;
  ASSERT_TRUE(client.explore(req, result, error)) << error;
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error.code, "io");
  EXPECT_EQ(result.error.message,
            "suite geometry 65536x65536 is too large (at most 16777216 cells "
            "per served trace)");

  // A later scale over the ceiling refuses the whole suite too.
  req.suite_base = {2048, 4096};
  req.suite_scales = 3;
  ASSERT_TRUE(client.explore(req, result, error)) << error;
  EXPECT_EQ(result.error.code, "io");
  EXPECT_NE(result.error.message.find("suite geometry 4096x8192 is too large"),
            std::string::npos)
      << result.error.message;

  // The daemon then serves the next request on the same connection.
  ASSERT_TRUE(client.explore(suite_request(), result, error)) << error;
  ASSERT_TRUE(result.ok) << result.error.message;
  EXPECT_EQ(result.body, offline_report(seq::scaled_suite({8, 8}, 1), {}));
}

TEST(ServeServer, BothWireModesGiveEqualResults) {
  // One daemon per mode, so memo state (and with it the summary counters)
  // evolves identically on both sides.
  TestServer binary_daemon;
  TestServer json_daemon;
  ServeClient binary = binary_daemon.connect(false);
  ServeClient json = json_daemon.connect(true);

  auto explore = [](ExploreRequest e) {
    Request r;
    r.kind = RequestKind::kExplore;
    r.explore = std::move(e);
    return r;
  };
  auto admin = [](const char* command) {
    Request r;
    r.kind = RequestKind::kAdmin;
    r.admin_command = command;
    return r;
  };
  ExploreRequest missing;
  TraceSource t;
  t.kind = TraceSource::Kind::kPath;
  t.name = testing::TempDir() + "no_such_parity.trace";
  missing.traces.push_back(t);

  struct Case {
    const char* name;
    Request request;
    bool ok;
    const char* code;
    // A request the codec itself rejects names that codec's syntax in its
    // message, so only the code is compared.
    bool codec_error;
  };
  const std::vector<Case> cases = {
      {"ping", Request{}, true, "", false},
      {"suite explore", explore(suite_request()), true, "", false},
      {"repeated explore", explore(suite_request()), true, "", false},
      {"empty explore", explore(ExploreRequest{}), false, "bad-request", true},
      {"missing path", explore(missing), false, "io", false},
      {"admin flush", admin("flush"), true, "", false},
      {"unknown admin verb", admin("rewind"), false, "bad-request", false},
      {"admin without cache dir", admin("compact"), false, "bad-request", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ServeClient::Result a, b;
    std::string error;
    ASSERT_TRUE(binary.exchange(c.request, a, error)) << error;
    ASSERT_TRUE(json.exchange(c.request, b, error)) << error;
    EXPECT_EQ(a.ok, c.ok);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error.code, c.code);
    EXPECT_EQ(a.error.code, b.error.code);
    if (c.codec_error)
      EXPECT_FALSE(a.error.message.empty() || b.error.message.empty());
    else
      EXPECT_EQ(a.error.message, b.error.message);
    EXPECT_EQ(a.body, b.body);
    EXPECT_EQ(a.summary.traces, b.summary.traces);
    EXPECT_EQ(a.summary.evaluations, b.summary.evaluations);
    EXPECT_EQ(a.summary.cache_hits, b.summary.cache_hits);
    EXPECT_EQ(a.summary.disk_hits, b.summary.disk_hits);
    EXPECT_EQ(a.summary.errors, b.summary.errors);
  }
}

TEST(ServeServer, GarbageAndDisconnectsNeverKillTheDaemon) {
  TestServer ts;
  {
    RawConn garbage(ts.server.bound_port());
    garbage.send_bytes("total nonsense\n\x01\x02\x03");
    garbage.half_close();
    // JSON mode (first byte not 'A'): one error line per junk line.
    const std::string reply = garbage.drain();
    EXPECT_NE(reply.find("\"ok\":false"), std::string::npos);
  }
  {
    RawConn truncated(ts.server.bound_port());
    const std::string frame = encode_frame(kPing, "");
    truncated.send_bytes(frame.substr(0, 7));  // mid-header disconnect
  }
  {
    RawConn hostile(ts.server.bound_port());
    std::string frame = encode_frame(kExplore, "");
    frame[8] = static_cast<char>(0xff);  // oversized length field
    frame[9] = static_cast<char>(0xff);
    frame[10] = static_cast<char>(0xff);
    frame[11] = static_cast<char>(0x7f);
    hostile.send_bytes(frame);
    const std::string reply = hostile.drain();
    Frame f;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(reply, f, consumed), DecodeStatus::kFrame);
    EXPECT_EQ(f.type, kError);
    ErrorInfo info;
    ASSERT_TRUE(parse_error(f.payload, info));
    EXPECT_EQ(info.code, "malformed-frame");
  }
  {
    RawConn reply_type(ts.server.bound_port());
    reply_type.send_bytes(encode_frame(kChunk, "client must not send this"));
    reply_type.half_close();
    const std::string reply = reply_type.drain();
    Frame f;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(reply, f, consumed), DecodeStatus::kFrame);
    EXPECT_EQ(f.type, kError);
  }

  // After all of the above the daemon still serves real work.
  ServeClient client = ts.connect();
  std::string banner, error;
  ASSERT_TRUE(client.ping(banner, error)) << error;
  ServeClient::Result result;
  ASSERT_TRUE(client.explore(suite_request(), result, error)) << error;
  EXPECT_TRUE(result.ok);
}

TEST(ServeServer, AdminFlushCompactStatsAgainstCacheDir) {
  const std::string cache_dir = testing::TempDir() + "serve_admin_cache";
  std::filesystem::remove_all(cache_dir);
  ServiceOptions so;
  so.cache_dir = cache_dir;
  so.flush_entries = 0;  // nothing reaches disk until flushed explicitly
  TestServer ts(so);
  ServeClient client = ts.connect();
  std::string error;

  ServeClient::Result result;
  ASSERT_TRUE(client.explore(suite_request(), result, error)) << error;
  ASSERT_TRUE(result.ok);

  ASSERT_TRUE(client.admin("flush", result, error)) << error;
  ASSERT_TRUE(result.ok) << result.error.message;
  EXPECT_NE(result.body.find("flushed 7 entries"), std::string::npos)
      << result.body;

  ASSERT_TRUE(client.admin("compact", result, error)) << error;
  ASSERT_TRUE(result.ok) << result.error.message;
  EXPECT_NE(result.body.find("7 kept"), std::string::npos) << result.body;

  ASSERT_TRUE(client.admin("stats", result, error)) << error;
  ASSERT_TRUE(result.ok) << result.error.message;
  core::EvalCacheDir cache(cache_dir);
  EXPECT_EQ(result.body, core::eval_cache_stats_json(cache.stats()));

  ASSERT_TRUE(client.admin("prune 4 0", result, error)) << error;
  ASSERT_TRUE(result.ok) << result.error.message;
  EXPECT_EQ(cache.read_records().size(), 4u);

  // Validation failures are framed errors, not crashes.
  ASSERT_TRUE(client.admin("prune", result, error)) << error;
  EXPECT_FALSE(result.ok);
  ASSERT_TRUE(client.admin("rewind", result, error)) << error;
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error.code, "bad-request");
}

TEST(ServeServer, AdminWithoutCacheDirIsRejected) {
  TestServer ts;
  ServeClient client = ts.connect();
  std::string error;
  ServeClient::Result result;
  ASSERT_TRUE(client.admin("compact", result, error)) << error;
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error.code, "bad-request");
  // flush stays a harmless no-op without a cache directory.
  ASSERT_TRUE(client.admin("flush", result, error)) << error;
  EXPECT_TRUE(result.ok);
}

TEST(ServeServer, ShutdownCommandDrainsToExitZero) {
  const std::string cache_dir = testing::TempDir() + "serve_shutdown_cache";
  std::filesystem::remove_all(cache_dir);
  ServiceOptions so;
  so.cache_dir = cache_dir;
  so.flush_entries = 0;
  TestServer ts(so);
  ServeClient client = ts.connect();
  std::string error;

  ServeClient::Result result;
  ASSERT_TRUE(client.explore(suite_request(), result, error)) << error;
  ASSERT_TRUE(result.ok);

  ASSERT_TRUE(client.admin("shutdown", result, error)) << error;
  EXPECT_TRUE(result.ok);
  ts.thread.join();
  EXPECT_EQ(ts.exit_code, 0);

  // The shutdown flush persisted the pending entries (the 9-trace suite
  // dedupes to 7 unique memo keys).
  EXPECT_EQ(core::EvalCacheDir(cache_dir).read_records().size(), 7u);
}

TEST(ServeServer, MaxRequestsDrainsToExitZero) {
  ServerOptions vo;
  vo.max_requests = 2;
  TestServer ts({}, vo);
  ServeClient client = ts.connect();
  std::string error;
  ServeClient::Result result;
  ASSERT_TRUE(client.explore(suite_request(), result, error)) << error;
  ASSERT_TRUE(result.ok);
  ServeClient second = ts.connect();
  ASSERT_TRUE(second.explore(suite_request(), result, error)) << error;
  ASSERT_TRUE(result.ok);
  ts.thread.join();
  EXPECT_EQ(ts.exit_code, 0);
}

TEST(ServeServer, ConcurrentClientsShareTheMemoSafely) {
  ServerOptions vo;
  vo.request_threads = 4;
  TestServer ts({}, vo);

  // Identical requests race on the shared memo table; different-option
  // requests race on distinct keys.  Every reply must match the offline
  // reference — this test doubles as the TSan workload for the serve path.
  const auto traces = seq::scaled_suite({8, 8}, 1);
  const std::string expect_default = offline_report(traces, {});
  core::ExploreOptions no_fsm_opt;
  no_fsm_opt.include_fsm = false;
  const std::string expect_no_fsm = offline_report(traces, no_fsm_opt);

  std::vector<std::thread> workers;
  std::vector<std::string> bodies(8);
  for (int i = 0; i < 8; ++i) {
    workers.emplace_back([&ts, &bodies, i] {
      ServeClient c = ts.connect();
      ExploreRequest req = suite_request();
      if (i % 2 == 1) req.options.emplace_back("no-fsm", "");
      ServeClient::Result result;
      std::string error;
      if (c.explore(req, result, error) && result.ok) bodies[i] = result.body;
    });
  }
  for (auto& w : workers) w.join();
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(bodies[i], i % 2 == 0 ? expect_default : expect_no_fsm)
        << "client " << i;
}

// A fake daemon on a temporary Unix socket: accepts one connection, reads
// one whole request, answers with canned bytes and closes.  Reading the
// request first matters: closing with unread bytes would turn the client's
// EOF into a connection reset.
struct FakePeer {
  std::string path;
  int listen_fd = -1;
  std::thread thread;

  FakePeer(const std::string& name, WireMode mode, std::string reply)
      : path(testing::TempDir() + name + ".sock") {
    ::unlink(path.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::listen(listen_fd, 1), 0);
    thread = std::thread([this, mode, reply = std::move(reply)] {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      std::string buf;
      Request req;
      ErrorInfo err;
      char tmp[4096];
      while (take_request(mode, buf, req, err) == TakeStatus::kNeedMore) {
        const ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
        if (n <= 0) break;
        buf.append(tmp, static_cast<std::size_t>(n));
      }
      ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
      ::close(fd);
    });
  }
  ~FakePeer() {
    thread.join();
    ::close(listen_fd);
    ::unlink(path.c_str());
  }
};

TEST(ServeClient, ReplyErrorsAreTransportFailures) {
  struct Case {
    const char* name;
    WireMode mode;
    RequestKind kind;
    std::string reply;
    const char* error;
  };
  const std::vector<Case> cases = {
      {"closed_mid_reply", WireMode::kBinary, RequestKind::kExplore,
       encode_frame(kChunk, "trace,width\n"),
       "server closed the connection mid-reply"},
      {"closed_mid_line", WireMode::kJson, RequestKind::kPing,
       "{\"ok\":true,\"po", "server closed the connection mid-reply"},
      {"malformed_frame", WireMode::kBinary, RequestKind::kPing, "garbage",
       "malformed reply frame: bad frame magic"},
      {"unexpected_type", WireMode::kBinary, RequestKind::kAdmin,
       encode_frame(kPong, "addm_serve protocol 1"),
       "unexpected reply frame type 19"},
      {"chunk_to_ping", WireMode::kBinary, RequestKind::kPing,
       encode_frame(kChunk, "x"), "unexpected reply frame type 16"},
      {"json_without_ok", WireMode::kJson, RequestKind::kExplore,
       "{\"report\":\"x\"}\n", "reply missing \"ok\" field"},
      {"json_not_an_object", WireMode::kJson, RequestKind::kAdmin, "[1]\n",
       "malformed reply line: "},
      {"malformed_summary", WireMode::kBinary, RequestKind::kExplore,
       encode_frame(kChunk, "x") + encode_frame(kDone, "traces many\n"),
       "malformed done summary"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    FakePeer peer(std::string("fake_peer_") + c.name, c.mode, c.reply);
    ServeClient client;
    client.set_json_mode(c.mode == WireMode::kJson);
    std::string error;
    ASSERT_TRUE(client.connect_unix(peer.path, error)) << error;
    Request req;
    req.kind = c.kind;
    if (c.kind == RequestKind::kExplore) req.explore = suite_request();
    if (c.kind == RequestKind::kAdmin) req.admin_command = "stats";
    ServeClient::Result result;
    EXPECT_FALSE(client.exchange(req, result, error));
    EXPECT_EQ(error, c.error);
  }
}

TEST(ServeClient, ServerErrorsAreResultsNotTransportFailures) {
  // A kError frame (or ok:false line) completes the exchange; a ping that
  // fails this way is reported through ping()'s transport error.
  {
    FakePeer peer("fake_peer_error_frame", WireMode::kBinary,
                  encode_frame(kChunk, "partial") +
                      encode_frame(kError, encode_error({"io", "disk gone"})));
    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect_unix(peer.path, error)) << error;
    ServeClient::Result result;
    ASSERT_TRUE(client.explore(suite_request(), result, error)) << error;
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error.code, "io");
    EXPECT_EQ(result.error.message, "disk gone");
  }
  {
    FakePeer peer("fake_peer_ping_error", WireMode::kJson,
                  "{\"ok\":false,\"message\":\"no\"}\n");
    ServeClient client;
    client.set_json_mode(true);
    std::string error, banner;
    ASSERT_TRUE(client.connect_unix(peer.path, error)) << error;
    EXPECT_FALSE(client.ping(banner, error));
    EXPECT_EQ(error, "ping failed: error");
  }
  ServeClient unconnected;
  ServeClient::Result result;
  std::string error;
  EXPECT_FALSE(unconnected.admin("stats", result, error));
  EXPECT_EQ(error, "not connected");
}

}  // namespace
}  // namespace addm::serve
