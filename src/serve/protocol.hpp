// Wire protocol for the addm_serve exploration daemon: one request model,
// one reply model, and two codecs that carry them.
//
// A Request is a ping, an admin command or an explore (ExploreRequest); a
// Reply is ok, with a body and (explore only) a summary, or an ErrorInfo.
// The server and the client deal only in these values.  The first byte a
// client sends fixes its connection's wire mode:
//
//  * Binary framing (default, used by addm_client): every message is a
//    12-byte header — magic "ADSV", version byte, type byte, two reserved
//    zero bytes, and a little-endian u32 payload length — followed by the
//    payload.  A first byte of 'A' selects this mode.
//  * JSON lines (for scripting without the client binary): one request
//    object per '\n'-terminated line, one reply object per line.  Any other
//    first byte selects this mode.
//
// Each mode is a codec that only translates: take_request and encode_reply
// on the server side, encode_request and take_reply on the client side.
// The full grammar (frame types, payload formats, error codes, versioning
// rules) is specified in docs/serve-protocol.md.
//
// Robustness contract: the decoders never throw and never over-read —
// arbitrary bytes produce kNeedMore (prefix of a valid message), a decoded
// request, or a structured error that the daemon answers in the
// connection's mode before reading on or closing.  It must never crash or
// hang on hostile input (tests/serve_protocol_test.cpp and the
// serve_request_fuzz target exercise exactly this boundary).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/explorer.hpp"
#include "seq/trace.hpp"

namespace addm::serve {

/// Protocol version carried in every binary frame header.  A frame
/// carrying any other version is malformed — the server replies kError
/// ("malformed-frame", "unsupported protocol version") and closes; bump
/// only on incompatible grammar changes (see docs/serve-protocol.md).
inline constexpr std::uint8_t kProtocolVersion = 1;

/// Frame header magic — also the mode-selection byte ('A').
inline constexpr char kFrameMagic[4] = {'A', 'D', 'S', 'V'};

/// Fixed header size preceding every binary payload.
inline constexpr std::size_t kFrameHeaderSize = 12;

/// Hard payload cap.  Anything longer is malformed by definition: the
/// decoder rejects the header before buffering the payload, so a hostile
/// length field cannot make the daemon allocate unbounded memory.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/// Frame types.  Requests are < 16, replies >= 16; unknown types decode
/// fine (length framing is type-independent) and are answered with kError
/// "unsupported".
enum FrameType : std::uint8_t {
  kExplore = 1,    ///< explore request (payload: request grammar below)
  kAdmin = 2,      ///< admin request (payload: one command line)
  kPing = 3,       ///< liveness probe (payload ignored)
  kChunk = 16,     ///< one slice of a report body, in order
  kDone = 17,      ///< end of a successful explore (payload: summary)
  kError = 18,     ///< failure (payload: code line + message)
  kPong = 19,      ///< ping reply (payload: server banner)
  kAdminDone = 20, ///< successful admin reply (payload: command output)
};

/// One decoded frame.
struct Frame {
  std::uint8_t type = 0;
  std::string payload;
};

enum class DecodeStatus {
  kFrame,     ///< one complete frame decoded; `consumed` bytes used
  kNeedMore,  ///< buffer holds a valid prefix; read more and retry
  kMalformed, ///< buffer can never become a valid frame
};

/// Encodes one frame (header + payload).  Payloads above kMaxFramePayload
/// are truncated-by-contract: callers must split report bodies into kChunk
/// frames instead (the server does); encode asserts nothing and clamps
/// never — oversized input is a programming error upstream.
std::string encode_frame(std::uint8_t type, std::string_view payload);

/// Attempts to decode one frame from the front of `buf`.  On kFrame,
/// `consumed` is the total bytes to drop from the buffer.  On kMalformed,
/// `error` (when non-null) receives a one-line diagnosis.  Never throws.
DecodeStatus decode_frame(std::string_view buf, Frame& out,
                          std::size_t& consumed, std::string* error = nullptr);

/// One trace input of an explore request.
struct TraceSource {
  enum class Kind { kPath, kInline };
  Kind kind = Kind::kPath;
  /// kPath: filesystem path the *server* reads (trust model: the daemon
  /// serves local clients only).  kInline: fallback name applied when the
  /// inline text carries no name (mirrors addm_explore's file-stem rule).
  std::string name;
  /// kInline only: the trace file bytes (seq/trace_io text format).
  std::string data;

  bool operator==(const TraceSource&) const = default;
};

/// One explore request — the daemon-side mirror of an addm_explore
/// invocation.  Defaults match the CLI defaults exactly, which is what
/// makes served reports byte-comparable to offline runs.
struct ExploreRequest {
  std::string format = "csv";  ///< "csv" or "json"
  std::size_t suite_scales = 0;  ///< 0 = no suite traces
  seq::ArrayGeometry suite_base{8, 8};
  /// Raw option key/values in request order, validated but not yet applied
  /// (apply with build_explore_options).  Keys are the names of the
  /// exploration-option table (core/explore_flags.hpp).
  std::vector<std::pair<std::string, std::string>> options;
  /// Suite traces come first, then these, in order — same list-construction
  /// rule as the CLI.
  std::vector<TraceSource> traces;

  bool operator==(const ExploreRequest&) const = default;
};

/// Serializes a request into the kExplore payload grammar
/// (docs/serve-protocol.md):
///   format csv|json
///   suite SCALES WxH
///   option KEY[ VALUE]
///   trace path PATH
///   trace inline NBYTES NAME   (NBYTES raw bytes follow, then '\n')
std::string encode_explore_request(const ExploreRequest& req);

/// Parses the kExplore payload grammar.  Returns false with a one-line
/// `error` on any malformation (unknown directive, bad counts, truncated
/// inline data, invalid option key/value, no traces selected).  Never
/// throws.
bool parse_explore_request(std::string_view payload, ExploreRequest& out,
                           std::string& error);

/// Applies every option of `req` onto a default-constructed ExploreOptions
/// through core::apply_explore_option.
/// The result of a request with no options is bit-for-bit the CLI default —
/// the pinned-fingerprint property the serve_smoke test enforces.
bool build_explore_options(const ExploreRequest& req, core::ExploreOptions& opt,
                           std::string& error);

/// Summary carried by the kDone frame: the out-of-band counters the CLI
/// prints to stderr.  Never part of the report body.
struct ExploreSummary {
  std::uint64_t traces = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t errors = 0;  ///< per-trace exploration errors in the report
};

std::string encode_done(const ExploreSummary& s);
bool parse_done(std::string_view payload, ExploreSummary& out);

/// Structured failure carried by kError frames: a stable machine-readable
/// code (docs/serve-protocol.md lists them) plus a human message.
struct ErrorInfo {
  std::string code;     ///< e.g. "bad-request", "io", "explore-failed"
  std::string message;
};

std::string encode_error(const ErrorInfo& e);
bool parse_error(std::string_view payload, ErrorInfo& out);

// ---------------------------------------------------------------------------
// The exchange: one request model and one reply model.

/// Kind of a request; the same three in both wire modes.
enum class RequestKind { kExplore, kAdmin, kPing };

/// One decoded request, whichever codec carried it.  Explore requests fill
/// `explore` (same structure, same option validation in both modes); admin
/// requests fill `admin_command` with one command line ("stats", "flush",
/// ...).
struct Request {
  RequestKind kind = RequestKind::kPing;
  ExploreRequest explore;
  std::string admin_command;

  bool operator==(const Request&) const = default;
};

/// The request model's older names, still used by pipebench and the
/// protocol tests.
using JsonRequest = Request;
using JsonRequestKind = RequestKind;

/// One reply.  On ok, `body` is the report (explore), the command output
/// (admin) or the banner (ping), and `summary` carries explore's counters;
/// on !ok, `error` explains.
struct Reply {
  bool ok = false;
  ErrorInfo error;
  std::string body;
  ExploreSummary summary;
};

// ---------------------------------------------------------------------------
// JSON-lines fallback.
//
// The repo deliberately has no external JSON dependency, so the fallback
// mode ships its own minimal parser: UTF-8-agnostic (strings are byte
// strings; \uXXXX escapes outside ASCII are rejected), numbers as doubles,
// depth-capped, never throwing.  It exists for protocol input only — report
// *output* JSON is produced by the existing deterministic renderers.

/// Parsed JSON value.  Tag + the one active member; inactive members stay
/// empty.  Object member order is preserved (first occurrence wins on
/// duplicate keys).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// Number extraction as an exact non-negative integer; false when the
  /// value is not a number, negative, fractional, or above 2^53.
  bool as_u64(std::uint64_t& out) const;
};

/// Parses one complete JSON document from `text` (leading/trailing ASCII
/// whitespace tolerated, nothing else after the value).  Returns false with
/// `error` on malformation or nesting deeper than 32 levels.  Never throws.
bool parse_json(std::string_view text, JsonValue& out, std::string& error);

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included).  Control bytes become \u00XX.
std::string json_escape(std::string_view s);

/// Parses one request line.  Returns false with `error` on malformed JSON,
/// an unknown "op", or invalid request fields.
bool parse_json_request(std::string_view line, Request& out,
                        std::string& error);

/// Request-line builders (client side of the fallback mode) — each returns
/// one complete line including the trailing '\n'.  Round-trip property:
/// parse_json_request(json_explore_request(r)) reproduces `r`.
std::string json_explore_request(const ExploreRequest& req);
std::string json_admin_request(std::string_view command);
std::string json_ping_request();

// ---------------------------------------------------------------------------
// The two codecs of the exchange.

/// The two wire modes a connection can speak.
enum class WireMode { kBinary, kJson };

/// Outcome of taking one message off the front of a receive buffer.
enum class TakeStatus {
  kNeedMore,  ///< no complete message yet: read more bytes and retry
  kDone,      ///< one message taken and decoded; its bytes are consumed
  kError,     ///< a message taken but unusable: answer the error, read on
  kClose,     ///< the stream is unusable: answer the error (server), close
};

/// Server side: takes the next request off the front of `buf`.
///  * Binary: a malformed frame is kClose ("malformed-frame"); a bad
///    kExplore payload is kError ("bad-request"); a frame type that is not
///    a request is kError ("unsupported").  Admin payloads lose their
///    trailing CR/LF; ping payloads are ignored.
///  * JSON: lines lose a trailing CR and empty lines are skipped; an
///    unparseable line is kError ("bad-request"); a partial line over the
///    64 MiB cap is kClose ("bad-request").
TakeStatus take_request(WireMode mode, std::string& buf, Request& out,
                        ErrorInfo& error);

/// Server side: the bytes answering a request of `kind`.  Binary: kPong,
/// kAdminDone, kChunk frames of at most 1 MiB then kDone, or kError.
/// JSON: one reply line.
std::string encode_reply(WireMode mode, RequestKind kind, const Reply& reply);

/// Client side: the bytes of one request.  Round-trip property:
/// take_request(mode, encode_request(mode, r)) reproduces `r`.
std::string encode_request(WireMode mode, const Request& req);

/// Client side: takes the reply to a request of `kind` off the front of
/// `buf`, accumulating into `out` across kNeedMore calls (report chunks).
/// kDone: `out` is complete (ok, or the server's error).  kClose: the reply
/// is malformed or unexpected, and `error` says how.
TakeStatus take_reply(WireMode mode, std::string& buf, RequestKind kind,
                      Reply& out, std::string& error);

}  // namespace addm::serve
