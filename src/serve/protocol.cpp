#include "serve/protocol.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>

#include "core/explore_flags.hpp"

namespace addm::serve {

namespace {

void put_u32le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

std::uint32_t get_u32le(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

void set_error(std::string* error, const char* msg) {
  if (error) *error = msg;
}

// Sets `error` and returns false: the request parsers' one-line rejection.
bool fail(std::string& error, std::string message) {
  error = std::move(message);
  return false;
}

}  // namespace

std::string encode_frame(std::uint8_t type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.append(kFrameMagic, sizeof kFrameMagic);
  out.push_back(static_cast<char>(kProtocolVersion));
  out.push_back(static_cast<char>(type));
  out.push_back('\0');
  out.push_back('\0');
  put_u32le(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

DecodeStatus decode_frame(std::string_view buf, Frame& out,
                          std::size_t& consumed, std::string* error) {
  consumed = 0;
  if (buf.empty()) return DecodeStatus::kNeedMore;
  // Magic is checked byte-by-byte so a wrong prefix is malformed as soon as
  // it can be, not after 12 bytes arrive.
  const std::size_t magic_avail = std::min(buf.size(), sizeof kFrameMagic);
  if (std::memcmp(buf.data(), kFrameMagic, magic_avail) != 0) {
    set_error(error, "bad frame magic");
    return DecodeStatus::kMalformed;
  }
  if (buf.size() >= 5 &&
      static_cast<std::uint8_t>(buf[4]) != kProtocolVersion) {
    set_error(error, "unsupported protocol version");
    return DecodeStatus::kMalformed;
  }
  if (buf.size() >= 8 && (buf[6] != '\0' || buf[7] != '\0')) {
    set_error(error, "nonzero reserved header bytes");
    return DecodeStatus::kMalformed;
  }
  if (buf.size() < kFrameHeaderSize) return DecodeStatus::kNeedMore;
  const std::uint32_t length = get_u32le(buf.data() + 8);
  if (length > kMaxFramePayload) {
    set_error(error, "frame payload exceeds 64 MiB cap");
    return DecodeStatus::kMalformed;
  }
  if (buf.size() < kFrameHeaderSize + length) return DecodeStatus::kNeedMore;
  out.type = static_cast<std::uint8_t>(buf[5]);
  out.payload.assign(buf.data() + kFrameHeaderSize, length);
  consumed = kFrameHeaderSize + length;
  return DecodeStatus::kFrame;
}

// ---------------------------------------------------------------------------
// Explore request grammar.

std::string encode_explore_request(const ExploreRequest& req) {
  std::string out = "format " + req.format + "\n";
  if (req.suite_scales > 0) {
    out += "suite " + std::to_string(req.suite_scales) + " " +
           std::to_string(req.suite_base.width) + "x" +
           std::to_string(req.suite_base.height) + "\n";
  }
  for (const auto& [key, value] : req.options) {
    out += "option " + key;
    if (!value.empty()) out += " " + value;
    out += "\n";
  }
  for (const TraceSource& t : req.traces) {
    if (t.kind == TraceSource::Kind::kPath) {
      out += "trace path " + t.name + "\n";
    } else {
      out += "trace inline " + std::to_string(t.data.size()) + " " + t.name +
             "\n";
      out += t.data;
      out += "\n";
    }
  }
  return out;
}

bool build_explore_options(const ExploreRequest& req, core::ExploreOptions& opt,
                           std::string& error) {
  opt = core::ExploreOptions{};
  for (const auto& [key, value] : req.options)
    if (!core::apply_explore_option(opt, key, value, error)) return false;
  return true;
}

bool parse_explore_request(std::string_view payload, ExploreRequest& out,
                           std::string& error) {
  out = ExploreRequest{};
  bool saw_format = false;
  bool saw_suite = false;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t eol = payload.find('\n', pos);
    if (eol == std::string_view::npos) eol = payload.size();
    const std::string_view line = payload.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;

    const std::size_t sp = std::min(line.find(' '), line.size());
    const std::string_view word = line.substr(0, sp);
    const std::string_view rest =
        sp < line.size() ? line.substr(sp + 1) : std::string_view{};

    if (word == "format") {
      if (saw_format) return fail(error, "duplicate format directive");
      if (rest != "csv" && rest != "json")
        return fail(error, "format must be csv or json");
      out.format = std::string(rest);
      saw_format = true;
    } else if (word == "suite") {
      if (saw_suite) return fail(error, "duplicate suite directive");
      const std::size_t sp2 = rest.find(' ');
      if (sp2 == std::string_view::npos) return fail(error, "suite expects SCALES WxH");
      std::uint64_t scales = 0;
      if (!seq::parse_u64(rest.substr(0, sp2), scales) || scales == 0)
        return fail(error, "suite expects a positive scale count");
      if (!seq::parse_geometry(rest.substr(sp2 + 1), out.suite_base))
        return fail(error, "suite expects a WxH base geometry (e.g. 8x8)");
      out.suite_scales = static_cast<std::size_t>(scales);
      saw_suite = true;
    } else if (word == "option") {
      if (rest.empty()) return fail(error, "option expects KEY [VALUE]");
      const std::size_t sp2 = std::min(rest.find(' '), rest.size());
      const std::string key(rest.substr(0, sp2));
      const std::string value(
          sp2 < rest.size() ? rest.substr(sp2 + 1) : std::string_view{});
      // Validate eagerly against a scratch options object so a bad request
      // fails at parse time, before any trace I/O.
      core::ExploreOptions scratch;
      if (!core::apply_explore_option(scratch, key, value, error)) return false;
      out.options.emplace_back(key, value);
    } else if (word == "trace") {
      const std::size_t sp2 = std::min(rest.find(' '), rest.size());
      const std::string_view kind = rest.substr(0, sp2);
      const std::string_view args =
          sp2 < rest.size() ? rest.substr(sp2 + 1) : std::string_view{};
      if (kind == "path") {
        if (args.empty()) return fail(error, "trace path expects a file path");
        TraceSource t;
        t.kind = TraceSource::Kind::kPath;
        t.name = std::string(args);
        out.traces.push_back(std::move(t));
      } else if (kind == "inline") {
        const std::size_t sp3 = std::min(args.find(' '), args.size());
        std::uint64_t nbytes = 0;
        if (!seq::parse_u64(args.substr(0, sp3), nbytes) ||
            nbytes > kMaxFramePayload)
          return fail(error, "trace inline expects NBYTES NAME");
        TraceSource t;
        t.kind = TraceSource::Kind::kInline;
        if (sp3 < args.size()) t.name = std::string(args.substr(sp3 + 1));
        // pos can be payload.size() + 1 when this directive line had no
        // trailing newline, so guard the subtraction against underflow.
        if (pos > payload.size() || payload.size() - pos < nbytes)
          return fail(error, "truncated inline trace data");
        t.data.assign(payload.data() + pos, nbytes);
        pos += nbytes;
        // The raw bytes are terminated by one mandatory newline so the
        // line scanner resynchronizes even when the data lacks one.
        if (pos >= payload.size() || payload[pos] != '\n')
          return fail(error, "inline trace data missing terminator");
        ++pos;
        out.traces.push_back(std::move(t));
      } else {
        error = "trace expects 'path' or 'inline'";
        return false;
      }
    } else {
      error = "unknown directive '" + std::string(word) + "'";
      return false;
    }
  }
  if (out.suite_scales == 0 && out.traces.empty())
    return fail(error, "no input traces (use suite or trace directives)");
  return true;
}

// ---------------------------------------------------------------------------
// Done / error payloads.

namespace {

// The summary's fields in wire order, named as in kDone payload lines and
// JSON reply members.
constexpr std::pair<const char*, std::uint64_t ExploreSummary::*> kSummaryFields[] = {
    {"traces", &ExploreSummary::traces},
    {"evaluations", &ExploreSummary::evaluations},
    {"cache_hits", &ExploreSummary::cache_hits},
    {"disk_hits", &ExploreSummary::disk_hits},
    {"errors", &ExploreSummary::errors},
};

}  // namespace

std::string encode_done(const ExploreSummary& s) {
  std::string out;
  for (const auto& [name, field] : kSummaryFields)
    out += std::string(name) + " " + std::to_string(s.*field) + "\n";
  return out;
}

bool parse_done(std::string_view payload, ExploreSummary& out) {
  out = ExploreSummary{};
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t eol = payload.find('\n', pos);
    if (eol == std::string_view::npos) eol = payload.size();
    const std::string_view line = payload.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    const std::size_t sp = line.find(' ');
    if (sp == std::string_view::npos) return false;
    std::uint64_t v = 0;
    if (!seq::parse_u64(line.substr(sp + 1), v)) return false;
    // Unknown keys are ignored: summaries may grow fields.
    for (const auto& [name, field] : kSummaryFields)
      if (line.substr(0, sp) == name) out.*field = v;
  }
  return true;
}

std::string encode_error(const ErrorInfo& e) {
  return e.code + "\n" + e.message;
}

bool parse_error(std::string_view payload, ErrorInfo& out) {
  const std::size_t eol = payload.find('\n');
  if (eol == std::string_view::npos) {
    out.code = std::string(payload);
    out.message.clear();
  } else {
    out.code = std::string(payload.substr(0, eol));
    out.message = std::string(payload.substr(eol + 1));
  }
  return !out.code.empty();
}

// ---------------------------------------------------------------------------
// Minimal JSON parser (fallback request mode only).

namespace {

struct JsonParser {
  std::string_view text;
  std::size_t pos = 0;
  std::string* error;

  bool fail(const char* msg) {
    if (error->empty())
      *error = std::string(msg) + " at byte " + std::to_string(pos);
    return false;
  }

  void skip_ws() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > 32) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') return parse_object(out, depth);
    if (c == '[') return parse_array(out, depth);
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return parse_string(out.string);
    }
    if (c == 't' || c == 'f' || c == 'n') return parse_literal(out);
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number(out);
    return fail("unexpected character");
  }

  // true, false or null, picked by the first byte.
  bool parse_literal(JsonValue& out) {
    const std::string_view word =
        text[pos] == 't' ? "true" : text[pos] == 'f' ? "false" : "null";
    if (text.substr(pos, word.size()) != word) return fail("bad literal");
    pos += word.size();
    out.type = word == "null" ? JsonValue::Type::kNull : JsonValue::Type::kBool;
    out.boolean = word == "true";
    return true;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-'))
      ++pos;
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token.empty())
      return fail("bad number");
    out.type = JsonValue::Type::kNumber;
    out.number = v;
    return true;
  }

  bool hex4(std::uint32_t& out) {
    if (pos + 4 > text.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos++];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<std::uint32_t>(c - 'A' + 10);
      else return fail("bad \\u escape");
    }
    return true;
  }

  bool parse_string(std::string& out) {
    ++pos;  // opening quote
    out.clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control byte in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos >= text.size()) return fail("truncated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!hex4(cp)) return false;
          if (cp > 0x7f) return fail("non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(cp));
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_array(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kArray;
    ++pos;  // '['
    skip_ws();
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      return true;
    }
    for (;;) {
      JsonValue elem;
      if (!parse_value(elem, depth + 1)) return false;
      out.array.push_back(std::move(elem));
      skip_ws();
      if (pos >= text.size()) return fail("unterminated array");
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      if (text[pos] == ']') {
        ++pos;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kObject;
    ++pos;  // '{'
    skip_ws();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return true;
    }
    for (;;) {
      skip_ws();
      if (pos >= text.size() || text[pos] != '"')
        return fail("expected object key");
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (pos >= text.size() || text[pos] != ':') return fail("expected ':'");
      ++pos;
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      // First occurrence wins on duplicate keys (find() scans in order).
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos >= text.size()) return fail("unterminated object");
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      if (text[pos] == '}') {
        ++pos;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

bool JsonValue::as_u64(std::uint64_t& out) const {
  if (type != Type::kNumber) return false;
  if (number < 0 || number > 9007199254740992.0) return false;  // 2^53
  const std::uint64_t v = static_cast<std::uint64_t>(number);
  if (static_cast<double>(v) != number) return false;
  out = v;
  return true;
}

bool parse_json(std::string_view text, JsonValue& out, std::string& error) {
  error.clear();
  JsonParser p{text, 0, &error};
  if (!p.parse_value(out, 0)) return false;
  p.skip_ws();
  if (p.pos != text.size()) return fail(error, "trailing bytes after JSON value");
  return true;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char hex[] = "0123456789abcdef";
          out += "\\u00";
          out.push_back(hex[(static_cast<unsigned char>(c) >> 4) & 0xf]);
          out.push_back(hex[static_cast<unsigned char>(c) & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

// Converts one "options" object member to the shared key/value form and
// validates it exactly like the binary grammar does.
bool json_option(const std::string& key, const JsonValue& v,
                 ExploreRequest& req, std::string& error) {
  std::string value;
  switch (v.type) {
    case JsonValue::Type::kBool:
      if (!v.boolean)
        return fail(error, "option '" + key + "': flag options must be true or omitted");
      break;  // flag: empty value
    case JsonValue::Type::kNumber: {
      std::uint64_t n = 0;
      if (!v.as_u64(n))
        return fail(error, "option '" + key + "': expected a non-negative integer");
      value = std::to_string(n);
      break;
    }
    case JsonValue::Type::kString:
      value = v.string;
      break;
    case JsonValue::Type::kArray: {
      // archs-style lists may be given as an array of strings.
      for (const JsonValue& e : v.array) {
        if (e.type != JsonValue::Type::kString)
          return fail(error, "option '" + key + "': array elements must be strings");
        if (!value.empty()) value += ",";
        value += e.string;
      }
      break;
    }
    default:
      error = "option '" + key + "': unsupported value type";
      return false;
  }
  core::ExploreOptions scratch;
  if (!core::apply_explore_option(scratch, key, value, error)) return false;
  req.options.emplace_back(key, value);
  return true;
}

}  // namespace

bool parse_json_request(std::string_view line, Request& out,
                        std::string& error) {
  out = Request{};
  JsonValue root;
  if (!parse_json(line, root, error)) return false;
  if (root.type != JsonValue::Type::kObject)
    return fail(error, "request must be a JSON object");
  const JsonValue* op = root.find("op");
  if (!op || op->type != JsonValue::Type::kString)
    return fail(error, "request needs a string \"op\" field");
  if (op->string == "ping") {
    out.kind = RequestKind::kPing;
    return true;
  }
  if (op->string == "admin") {
    out.kind = RequestKind::kAdmin;
    const JsonValue* cmd = root.find("command");
    if (!cmd || cmd->type != JsonValue::Type::kString || cmd->string.empty())
      return fail(error, "admin request needs a non-empty string \"command\"");
    out.admin_command = cmd->string;
    return true;
  }
  if (op->string != "explore") return fail(error, "unknown op '" + op->string + "'");
  out.kind = RequestKind::kExplore;
  ExploreRequest& req = out.explore;

  if (const JsonValue* fmt = root.find("format")) {
    if (fmt->type != JsonValue::Type::kString ||
        (fmt->string != "csv" && fmt->string != "json"))
      return fail(error, "format must be \"csv\" or \"json\"");
    req.format = fmt->string;
  }
  if (const JsonValue* suite = root.find("suite")) {
    if (suite->type != JsonValue::Type::kObject)
      return fail(error, "suite must be an object {\"scales\":N,\"base\":\"WxH\"}");
    const JsonValue* scales = suite->find("scales");
    std::uint64_t n = 0;
    if (!scales || !scales->as_u64(n) || n == 0)
      return fail(error, "suite.scales must be a positive integer");
    req.suite_scales = static_cast<std::size_t>(n);
    if (const JsonValue* base = suite->find("base")) {
      if (base->type != JsonValue::Type::kString ||
          !seq::parse_geometry(base->string, req.suite_base))
        return fail(error, "suite.base must be \"WxH\" (e.g. \"8x8\")");
    }
  }
  if (const JsonValue* options = root.find("options")) {
    if (options->type != JsonValue::Type::kObject)
      return fail(error, "options must be an object");
    for (const auto& [key, value] : options->object)
      if (!json_option(key, value, req, error)) return false;
  }
  if (const JsonValue* traces = root.find("traces")) {
    if (traces->type != JsonValue::Type::kArray)
      return fail(error, "traces must be an array");
    for (const JsonValue& t : traces->array) {
      if (t.type != JsonValue::Type::kObject)
        return fail(error, "each trace must be an object");
      const JsonValue* path = t.find("path");
      const JsonValue* inline_data = t.find("inline");
      if ((path != nullptr) == (inline_data != nullptr))
        return fail(error, "each trace needs exactly one of \"path\" or \"inline\"");
      TraceSource src;
      if (path) {
        if (path->type != JsonValue::Type::kString || path->string.empty())
          return fail(error, "trace path must be a non-empty string");
        src.kind = TraceSource::Kind::kPath;
        src.name = path->string;
      } else {
        if (inline_data->type != JsonValue::Type::kString)
          return fail(error, "inline trace data must be a string");
        src.kind = TraceSource::Kind::kInline;
        src.data = inline_data->string;
        if (const JsonValue* name = t.find("name")) {
          if (name->type != JsonValue::Type::kString)
            return fail(error, "trace name must be a string");
          src.name = name->string;
        }
      }
      req.traces.push_back(std::move(src));
    }
  }
  if (req.suite_scales == 0 && req.traces.empty())
    return fail(error, "no input traces (use suite or traces)");
  return true;
}

std::string json_explore_request(const ExploreRequest& req) {
  std::string out = "{\"op\":\"explore\",\"format\":\"" +
                    json_escape(req.format) + "\"";
  if (req.suite_scales > 0) {
    out += ",\"suite\":{\"scales\":" + std::to_string(req.suite_scales) +
           ",\"base\":\"" + std::to_string(req.suite_base.width) + "x" +
           std::to_string(req.suite_base.height) + "\"}";
  }
  if (!req.options.empty()) {
    out += ",\"options\":{";
    bool first = true;
    for (const auto& [key, value] : req.options) {
      if (!first) out += ",";
      first = false;
      out += "\"" + json_escape(key) + "\":";
      // Flags serialize as true; valued options as strings (the option
      // applier parses numeric values from strings either way).
      out += value.empty() ? "true" : "\"" + json_escape(value) + "\"";
    }
    out += "}";
  }
  if (!req.traces.empty()) {
    out += ",\"traces\":[";
    bool first = true;
    for (const TraceSource& t : req.traces) {
      if (!first) out += ",";
      first = false;
      if (t.kind == TraceSource::Kind::kPath) {
        out += "{\"path\":\"" + json_escape(t.name) + "\"}";
      } else {
        out += "{\"inline\":\"" + json_escape(t.data) + "\"";
        if (!t.name.empty()) out += ",\"name\":\"" + json_escape(t.name) + "\"";
        out += "}";
      }
    }
    out += "]";
  }
  out += "}\n";
  return out;
}

std::string json_admin_request(std::string_view command) {
  return "{\"op\":\"admin\",\"command\":\"" + json_escape(command) + "\"}\n";
}

std::string json_ping_request() { return "{\"op\":\"ping\"}\n"; }

// ---------------------------------------------------------------------------
// The two codecs.

namespace {

// Report bodies go out in slices of this size, so a peer's buffer needs stay
// flat and it can stream the body to disk.
constexpr std::size_t kChunkBytes = 1u << 20;

// The frame that completes a successful reply, indexed by RequestKind.
constexpr std::uint8_t kDoneFrame[] = {kDone, kAdminDone, kPong};

std::uint8_t done_frame(RequestKind kind) {
  return kDoneFrame[static_cast<std::size_t>(kind)];
}

TakeStatus take_frame_request(std::string& buf, Request& out, ErrorInfo& error) {
  Frame frame;
  std::size_t consumed = 0;
  switch (decode_frame(buf, frame, consumed, &error.message)) {
    case DecodeStatus::kNeedMore:
      return TakeStatus::kNeedMore;
    case DecodeStatus::kMalformed:
      // After garbage there is no trustworthy frame boundary left to
      // resynchronize on.
      error.code = "malformed-frame";
      return TakeStatus::kClose;
    case DecodeStatus::kFrame:
      break;
  }
  buf.erase(0, consumed);
  out = Request{};
  switch (frame.type) {
    case kPing:
      out.kind = RequestKind::kPing;
      return TakeStatus::kDone;
    case kAdmin:
      out.kind = RequestKind::kAdmin;
      out.admin_command = std::move(frame.payload);
      while (!out.admin_command.empty() &&
             (out.admin_command.back() == '\n' || out.admin_command.back() == '\r'))
        out.admin_command.pop_back();
      return TakeStatus::kDone;
    case kExplore:
      out.kind = RequestKind::kExplore;
      if (parse_explore_request(frame.payload, out.explore, error.message))
        return TakeStatus::kDone;
      error.code = "bad-request";
      return TakeStatus::kError;
    default:
      error = {"unsupported", "unexpected frame type " + std::to_string(frame.type)};
      return TakeStatus::kError;
  }
}

TakeStatus take_json_request(std::string& buf, Request& out, ErrorInfo& error) {
  for (;;) {
    const std::size_t eol = buf.find('\n');
    if (eol == std::string::npos) {
      if (buf.size() <= kMaxFramePayload) return TakeStatus::kNeedMore;
      error = {"bad-request", "request line exceeds the 64 MiB cap"};
      return TakeStatus::kClose;
    }
    std::string line = buf.substr(0, eol);
    buf.erase(0, eol + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (parse_json_request(line, out, error.message)) return TakeStatus::kDone;
    error.code = "bad-request";
    return TakeStatus::kError;
  }
}

TakeStatus take_frame_reply(std::string& buf, RequestKind kind, Reply& out,
                            std::string& error) {
  for (;;) {
    Frame f;
    std::size_t consumed = 0;
    std::string why;
    switch (decode_frame(buf, f, consumed, &why)) {
      case DecodeStatus::kNeedMore:
        return TakeStatus::kNeedMore;
      case DecodeStatus::kMalformed:
        error = "malformed reply frame: " + why;
        return TakeStatus::kClose;
      case DecodeStatus::kFrame:
        break;
    }
    buf.erase(0, consumed);
    if (f.type == kChunk && kind == RequestKind::kExplore) {
      out.body += f.payload;
      continue;
    }
    if (f.type == kError) {
      parse_error(f.payload, out.error);
      if (out.error.code.empty()) out.error.code = "error";
      return TakeStatus::kDone;
    }
    if (f.type != done_frame(kind)) {
      error = "unexpected reply frame type " + std::to_string(f.type);
      return TakeStatus::kClose;
    }
    if (kind != RequestKind::kExplore)
      out.body = std::move(f.payload);
    else if (!parse_done(f.payload, out.summary)) {
      error = "malformed done summary";
      return TakeStatus::kClose;
    }
    out.ok = true;
    return TakeStatus::kDone;
  }
}

TakeStatus take_json_reply(std::string& buf, Reply& out, std::string& error) {
  const std::size_t eol = buf.find('\n');
  if (eol == std::string::npos) return TakeStatus::kNeedMore;
  JsonValue root;
  std::string why;
  const bool parsed = parse_json(std::string_view(buf).substr(0, eol), root, why);
  buf.erase(0, eol + 1);
  if (!parsed || root.type != JsonValue::Type::kObject) {
    error = "malformed reply line: " + why;
    return TakeStatus::kClose;
  }
  const JsonValue* ok = root.find("ok");
  if (!ok || ok->type != JsonValue::Type::kBool) {
    error = "reply missing \"ok\" field";
    return TakeStatus::kClose;
  }
  if (!ok->boolean) {
    if (const JsonValue* code = root.find("code")) out.error.code = code->string;
    if (const JsonValue* msg = root.find("message")) out.error.message = msg->string;
    if (out.error.code.empty()) out.error.code = "error";
    return TakeStatus::kDone;
  }
  out.ok = true;
  for (const char* key : {"report", "output", "pong"})
    if (const JsonValue* v = root.find(key))
      if (v->type == JsonValue::Type::kString) out.body = v->string;
  for (const auto& [name, field] : kSummaryFields)
    if (const JsonValue* v = root.find(name)) v->as_u64(out.summary.*field);
  return TakeStatus::kDone;
}

std::string json_reply(RequestKind kind, const Reply& r) {
  if (!r.ok)
    return "{\"ok\":false,\"code\":\"" + json_escape(r.error.code) +
           "\",\"message\":\"" + json_escape(r.error.message) + "\"}\n";
  if (kind == RequestKind::kPing)
    return "{\"ok\":true,\"pong\":\"" + json_escape(r.body) + "\"}\n";
  if (kind == RequestKind::kAdmin)
    return "{\"ok\":true,\"output\":\"" + json_escape(r.body) + "\"}\n";
  std::string out = "{\"ok\":true,\"report\":\"" + json_escape(r.body) + "\"";
  for (const auto& [name, field] : kSummaryFields)
    out += ",\"" + std::string(name) + "\":" + std::to_string(r.summary.*field);
  return out + "}\n";
}

std::string frame_reply(RequestKind kind, const Reply& r) {
  if (!r.ok) return encode_frame(kError, encode_error(r.error));
  if (kind != RequestKind::kExplore) return encode_frame(done_frame(kind), r.body);
  std::string out;
  for (std::string_view body = r.body; !body.empty();) {
    const std::size_t n = std::min(body.size(), kChunkBytes);
    out += encode_frame(kChunk, body.substr(0, n));
    body.remove_prefix(n);
  }
  out += encode_frame(kDone, encode_done(r.summary));
  return out;
}

}  // namespace

TakeStatus take_request(WireMode mode, std::string& buf, Request& out,
                        ErrorInfo& error) {
  return mode == WireMode::kJson ? take_json_request(buf, out, error)
                                 : take_frame_request(buf, out, error);
}

std::string encode_reply(WireMode mode, RequestKind kind, const Reply& reply) {
  return mode == WireMode::kJson ? json_reply(kind, reply) : frame_reply(kind, reply);
}

std::string encode_request(WireMode mode, const Request& req) {
  const bool json = mode == WireMode::kJson;
  switch (req.kind) {
    case RequestKind::kExplore:
      return json ? json_explore_request(req.explore)
                  : encode_frame(kExplore, encode_explore_request(req.explore));
    case RequestKind::kAdmin:
      return json ? json_admin_request(req.admin_command)
                  : encode_frame(kAdmin, req.admin_command);
    case RequestKind::kPing:
      break;
  }
  return json ? json_ping_request() : encode_frame(kPing, "");
}

TakeStatus take_reply(WireMode mode, std::string& buf, RequestKind kind,
                      Reply& out, std::string& error) {
  return mode == WireMode::kJson ? take_json_reply(buf, out, error)
                                 : take_frame_reply(buf, kind, out, error);
}

}  // namespace addm::serve
