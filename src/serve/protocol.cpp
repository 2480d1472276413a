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
      if (saw_format) {
        error = "duplicate format directive";
        return false;
      }
      if (rest != "csv" && rest != "json") {
        error = "format must be csv or json";
        return false;
      }
      out.format = std::string(rest);
      saw_format = true;
    } else if (word == "suite") {
      if (saw_suite) {
        error = "duplicate suite directive";
        return false;
      }
      const std::size_t sp2 = rest.find(' ');
      if (sp2 == std::string_view::npos) {
        error = "suite expects SCALES WxH";
        return false;
      }
      std::uint64_t scales = 0;
      if (!seq::parse_u64(rest.substr(0, sp2), scales) || scales == 0) {
        error = "suite expects a positive scale count";
        return false;
      }
      if (!seq::parse_geometry(rest.substr(sp2 + 1), out.suite_base)) {
        error = "suite expects a WxH base geometry (e.g. 8x8)";
        return false;
      }
      out.suite_scales = static_cast<std::size_t>(scales);
      saw_suite = true;
    } else if (word == "option") {
      if (rest.empty()) {
        error = "option expects KEY [VALUE]";
        return false;
      }
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
        if (args.empty()) {
          error = "trace path expects a file path";
          return false;
        }
        TraceSource t;
        t.kind = TraceSource::Kind::kPath;
        t.name = std::string(args);
        out.traces.push_back(std::move(t));
      } else if (kind == "inline") {
        const std::size_t sp3 = std::min(args.find(' '), args.size());
        std::uint64_t nbytes = 0;
        if (!seq::parse_u64(args.substr(0, sp3), nbytes) ||
            nbytes > kMaxFramePayload) {
          error = "trace inline expects NBYTES NAME";
          return false;
        }
        TraceSource t;
        t.kind = TraceSource::Kind::kInline;
        if (sp3 < args.size()) t.name = std::string(args.substr(sp3 + 1));
        // pos can be payload.size() + 1 when this directive line had no
        // trailing newline, so guard the subtraction against underflow.
        if (pos > payload.size() || payload.size() - pos < nbytes) {
          error = "truncated inline trace data";
          return false;
        }
        t.data.assign(payload.data() + pos, nbytes);
        pos += nbytes;
        // The raw bytes are terminated by one mandatory newline so the
        // line scanner resynchronizes even when the data lacks one.
        if (pos >= payload.size() || payload[pos] != '\n') {
          error = "inline trace data missing terminator";
          return false;
        }
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
  if (out.suite_scales == 0 && out.traces.empty()) {
    error = "no input traces (use suite or trace directives)";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Done / error payloads.

std::string encode_done(const ExploreSummary& s) {
  std::string out;
  out += "traces " + std::to_string(s.traces) + "\n";
  out += "evaluations " + std::to_string(s.evaluations) + "\n";
  out += "cache_hits " + std::to_string(s.cache_hits) + "\n";
  out += "disk_hits " + std::to_string(s.disk_hits) + "\n";
  out += "errors " + std::to_string(s.errors) + "\n";
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
    const std::string_view key = line.substr(0, sp);
    if (key == "traces") out.traces = v;
    else if (key == "evaluations") out.evaluations = v;
    else if (key == "cache_hits") out.cache_hits = v;
    else if (key == "disk_hits") out.disk_hits = v;
    else if (key == "errors") out.errors = v;
    // Unknown keys are ignored: summaries may grow fields.
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
    if (c == 't' || c == 'f') return parse_bool(out);
    if (c == 'n') return parse_null(out);
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number(out);
    return fail("unexpected character");
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return fail("bad literal");
    pos += word.size();
    return true;
  }

  bool parse_bool(JsonValue& out) {
    out.type = JsonValue::Type::kBool;
    if (text[pos] == 't') {
      out.boolean = true;
      return literal("true");
    }
    out.boolean = false;
    return literal("false");
  }

  bool parse_null(JsonValue& out) {
    out.type = JsonValue::Type::kNull;
    return literal("null");
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
  if (p.pos != text.size()) {
    error = "trailing bytes after JSON value";
    return false;
  }
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
      if (!v.boolean) {
        error = "option '" + key + "': flag options must be true or omitted";
        return false;
      }
      break;  // flag: empty value
    case JsonValue::Type::kNumber: {
      std::uint64_t n = 0;
      if (!v.as_u64(n)) {
        error = "option '" + key + "': expected a non-negative integer";
        return false;
      }
      value = std::to_string(n);
      break;
    }
    case JsonValue::Type::kString:
      value = v.string;
      break;
    case JsonValue::Type::kArray: {
      // archs-style lists may be given as an array of strings.
      for (const JsonValue& e : v.array) {
        if (e.type != JsonValue::Type::kString) {
          error = "option '" + key + "': array elements must be strings";
          return false;
        }
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

bool parse_json_request(std::string_view line, JsonRequest& out,
                        std::string& error) {
  out = JsonRequest{};
  JsonValue root;
  if (!parse_json(line, root, error)) return false;
  if (root.type != JsonValue::Type::kObject) {
    error = "request must be a JSON object";
    return false;
  }
  const JsonValue* op = root.find("op");
  if (!op || op->type != JsonValue::Type::kString) {
    error = "request needs a string \"op\" field";
    return false;
  }
  if (op->string == "ping") {
    out.kind = JsonRequestKind::kPing;
    return true;
  }
  if (op->string == "admin") {
    out.kind = JsonRequestKind::kAdmin;
    const JsonValue* cmd = root.find("command");
    if (!cmd || cmd->type != JsonValue::Type::kString || cmd->string.empty()) {
      error = "admin request needs a non-empty string \"command\"";
      return false;
    }
    out.admin_command = cmd->string;
    return true;
  }
  if (op->string != "explore") {
    error = "unknown op '" + op->string + "'";
    return false;
  }
  out.kind = JsonRequestKind::kExplore;
  ExploreRequest& req = out.explore;

  if (const JsonValue* fmt = root.find("format")) {
    if (fmt->type != JsonValue::Type::kString ||
        (fmt->string != "csv" && fmt->string != "json")) {
      error = "format must be \"csv\" or \"json\"";
      return false;
    }
    req.format = fmt->string;
  }
  if (const JsonValue* suite = root.find("suite")) {
    if (suite->type != JsonValue::Type::kObject) {
      error = "suite must be an object {\"scales\":N,\"base\":\"WxH\"}";
      return false;
    }
    const JsonValue* scales = suite->find("scales");
    std::uint64_t n = 0;
    if (!scales || !scales->as_u64(n) || n == 0) {
      error = "suite.scales must be a positive integer";
      return false;
    }
    req.suite_scales = static_cast<std::size_t>(n);
    if (const JsonValue* base = suite->find("base")) {
      if (base->type != JsonValue::Type::kString ||
          !seq::parse_geometry(base->string, req.suite_base)) {
        error = "suite.base must be \"WxH\" (e.g. \"8x8\")";
        return false;
      }
    }
  }
  if (const JsonValue* options = root.find("options")) {
    if (options->type != JsonValue::Type::kObject) {
      error = "options must be an object";
      return false;
    }
    for (const auto& [key, value] : options->object)
      if (!json_option(key, value, req, error)) return false;
  }
  if (const JsonValue* traces = root.find("traces")) {
    if (traces->type != JsonValue::Type::kArray) {
      error = "traces must be an array";
      return false;
    }
    for (const JsonValue& t : traces->array) {
      if (t.type != JsonValue::Type::kObject) {
        error = "each trace must be an object";
        return false;
      }
      const JsonValue* path = t.find("path");
      const JsonValue* inline_data = t.find("inline");
      if ((path != nullptr) == (inline_data != nullptr)) {
        error = "each trace needs exactly one of \"path\" or \"inline\"";
        return false;
      }
      TraceSource src;
      if (path) {
        if (path->type != JsonValue::Type::kString || path->string.empty()) {
          error = "trace path must be a non-empty string";
          return false;
        }
        src.kind = TraceSource::Kind::kPath;
        src.name = path->string;
      } else {
        if (inline_data->type != JsonValue::Type::kString) {
          error = "inline trace data must be a string";
          return false;
        }
        src.kind = TraceSource::Kind::kInline;
        src.data = inline_data->string;
        if (const JsonValue* name = t.find("name")) {
          if (name->type != JsonValue::Type::kString) {
            error = "trace name must be a string";
            return false;
          }
          src.name = name->string;
        }
      }
      req.traces.push_back(std::move(src));
    }
  }
  if (req.suite_scales == 0 && req.traces.empty()) {
    error = "no input traces (use suite or traces)";
    return false;
  }
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

std::string json_explore_reply(std::string_view report,
                               const ExploreSummary& s) {
  std::string out = "{\"ok\":true,\"report\":\"";
  out += json_escape(report);
  out += "\",\"traces\":" + std::to_string(s.traces);
  out += ",\"evaluations\":" + std::to_string(s.evaluations);
  out += ",\"cache_hits\":" + std::to_string(s.cache_hits);
  out += ",\"disk_hits\":" + std::to_string(s.disk_hits);
  out += ",\"errors\":" + std::to_string(s.errors);
  out += "}\n";
  return out;
}

std::string json_admin_reply(std::string_view output) {
  return "{\"ok\":true,\"output\":\"" + json_escape(output) + "\"}\n";
}

std::string json_pong_reply(std::string_view banner) {
  return "{\"ok\":true,\"pong\":\"" + json_escape(banner) + "\"}\n";
}

std::string json_error_reply(const ErrorInfo& e) {
  return "{\"ok\":false,\"code\":\"" + json_escape(e.code) +
         "\",\"message\":\"" + json_escape(e.message) + "\"}\n";
}

}  // namespace addm::serve
