#include "core/eval_cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <string_view>

#include "core/fingerprint.hpp"
#include "seq/trace.hpp"

namespace addm::core {

namespace {

namespace fs = std::filesystem;
using seq::parse_u64;

constexpr std::string_view kIndexMagic = "addm-eval-cache";
constexpr std::string_view kEntryMagic = "addm-eval-entry";
constexpr const char* kIndexName = "index.txt";

bool parse_hex64(std::string_view s, std::uint64_t& out) {
  if (s.empty() || s.size() > 16) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9')
      v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else
      return false;
  }
  out = v;
  return true;
}

/// Doubles are stored as their IEEE-754 bit pattern so that a disk round
/// trip is bit-exact and reports built from cached points match reports
/// built from fresh evaluations byte-for-byte.
std::string double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return hex64(bits);
}

bool parse_double_bits(std::string_view s, double& out) {
  std::uint64_t bits;
  if (!parse_hex64(s, bits) || s.size() != 16) return false;
  std::memcpy(&out, &bits, sizeof out);
  return true;
}

/// Strings are quoted and percent-escaped so every serialized field is a
/// single non-empty whitespace-free token ("" encodes the empty string).
std::string quote_field(const std::string& s) {
  std::string q = "\"";
  for (unsigned char c : s) {
    if (c > 0x20 && c < 0x7f && c != '%' && c != '"') {
      q += static_cast<char>(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "%%%02x", c);
      q += buf;
    }
  }
  q += '"';
  return q;
}

bool unquote_field(std::string_view t, std::string& out) {
  if (t.size() < 2 || t.front() != '"' || t.back() != '"') return false;
  out.clear();
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    const char c = t[i];
    if (c == '%') {
      if (i + 2 >= t.size() - 1) return false;  // need 2 hex chars inside the quotes
      std::uint64_t v = 0;
      if (!parse_hex64(t.substr(i + 1, 2), v)) return false;
      out += static_cast<char>(static_cast<unsigned char>(v));
      i += 2;
    } else if (c == '"' || static_cast<unsigned char>(c) <= 0x20) {
      return false;
    } else {
      out += c;
    }
  }
  return true;
}

std::vector<std::string_view> split_tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    const std::size_t j = line.find(' ', i);
    if (j == std::string_view::npos) {
      tokens.push_back(line.substr(i));
      break;
    }
    tokens.push_back(line.substr(i, j - i));
    i = j + 1;
  }
  return tokens;
}

std::string entry_filename(const EvalCacheKey& key) {
  return hex64(key.trace_hash) + "-" + hex64(key.options_hash) + ".entry";
}

/// Inverse of entry_filename: recognizes `<16hex>-<16hex>.entry` names so
/// maintenance can re-adopt payload files whose index lines were lost.
bool parse_entry_filename(const std::string& name, EvalCacheKey& key) {
  if (name.size() != 16 + 1 + 16 + 6) return false;
  if (name[16] != '-' || name.compare(33, 6, ".entry") != 0) return false;
  return parse_hex64(std::string_view(name).substr(0, 16), key.trace_hash) &&
         parse_hex64(std::string_view(name).substr(17, 16), key.options_hash);
}

std::uint64_t payload_checksum(std::string_view payload) {
  Fnv1a64 h;
  h.bytes(payload.data(), payload.size());
  return h.digest();
}

/// Slurps a payload file, stat-first: anything that is not a plain regular
/// file (vanished entry, payload replaced by a directory or FIFO) degrades
/// to a miss here instead of surfacing a stream read error downstream.
bool read_payload(const fs::path& path, std::string& out) {
  std::error_code ec;
  if (!fs::is_regular_file(path, ec) || ec) return false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  if (in.bad()) return false;
  out = os.str();
  return true;
}

/// Lexicographic key order: load results are sorted so cache contents are a
/// pure function of the key set, independent of index line order.
bool key_less(const EvalCacheKey& a, const EvalCacheKey& b) {
  if (a.trace_hash != b.trace_hash) return a.trace_hash < b.trace_hash;
  return a.options_hash < b.options_hash;
}

using KeyPair = std::pair<std::uint64_t, std::uint64_t>;

KeyPair to_pair(const EvalCacheKey& k) { return {k.trace_hash, k.options_hash}; }

std::string index_header(int version) {
  return std::string(kIndexMagic) + " " + std::to_string(version);
}

/// Commutative metadata fold: record order must never influence the result
/// (prune determinism under index-line permutation depends on it).
void combine_meta(EvalCacheMeta& into, const EvalCacheMeta& add) {
  into.hits += add.hits;
  if (add.generation != 0 &&
      (into.generation == 0 || add.generation < into.generation))
    into.generation = add.generation;
  into.bytes = std::max(into.bytes, add.bytes);
}

/// Everything one pass over index.txt yields.  `version` is 0 for a missing
/// index, -1 for a malformed first line, else the header's version number
/// (which may be a future one — callers decide how to treat it; keys are
/// only collected for versions this build understands).
struct IndexData {
  int version = 0;
  std::vector<EvalCacheKey> keys;  ///< unique, first-occurrence order
  std::map<KeyPair, EvalCacheMeta> meta;
  std::uint64_t max_generation = 0;
  std::size_t damage = 0;
};

IndexData read_index(const fs::path& dir) {
  IndexData idx;
  std::ifstream in(dir / kIndexName);
  if (!in) return idx;

  std::string line;
  if (!std::getline(in, line)) return idx;  // empty file: treat as missing
  {
    const auto tokens = split_tokens(line);
    std::uint64_t version = 0;
    if (tokens.size() != 2 || tokens[0] != kIndexMagic ||
        !parse_u64(tokens[1], version) || version == 0 ||
        version > static_cast<std::uint64_t>(INT32_MAX)) {
      idx.version = -1;
      ++idx.damage;
      return idx;
    }
    idx.version = static_cast<int>(version);
  }
  if (idx.version > kEvalCacheFormatVersion) {
    // Future format: readers must not guess at its records.
    ++idx.damage;
    return idx;
  }

  // Hit records may precede their entry record only through manual edits;
  // accumulate them separately and credit indexed keys at the end so the
  // fold is line-order independent.
  std::map<KeyPair, std::uint64_t> pending_hits;
  const std::string own_header = index_header(idx.version);
  while (std::getline(in, line)) {
    // Two processes racing on first creation can both append the header;
    // the duplicate is expected noise, not damage.
    if (line == own_header) continue;
    if (line.empty()) continue;
    const auto tokens = split_tokens(line);
    EvalCacheKey key;
    if (tokens.size() >= 3 && tokens[0] == "entry" &&
        parse_hex64(tokens[1], key.trace_hash) && tokens[1].size() == 16 &&
        parse_hex64(tokens[2], key.options_hash) && tokens[2].size() == 16) {
      EvalCacheMeta meta;
      bool ok = tokens.size() == 3;
      if (tokens.size() == 6) {
        ok = parse_u64(tokens[3], meta.generation) &&
             parse_u64(tokens[4], meta.hits) && parse_u64(tokens[5], meta.bytes);
      }
      if (!ok) {
        ++idx.damage;
        continue;
      }
      auto [it, inserted] = idx.meta.try_emplace(to_pair(key), meta);
      if (inserted)
        idx.keys.push_back(key);
      else
        combine_meta(it->second, meta);
      idx.max_generation = std::max(idx.max_generation, meta.generation);
      continue;
    }
    if (tokens.size() == 4 && tokens[0] == "hit" &&
        parse_hex64(tokens[1], key.trace_hash) && tokens[1].size() == 16 &&
        parse_hex64(tokens[2], key.options_hash) && tokens[2].size() == 16) {
      std::uint64_t count = 0;
      if (!parse_u64(tokens[3], count)) {
        ++idx.damage;
        continue;
      }
      pending_hits[to_pair(key)] += count;
      continue;
    }
    ++idx.damage;
  }
  // Hits only ever credit indexed entries; a hit record surviving past its
  // entry (pruned meanwhile) is ignorable noise, not damage.
  for (const auto& [key, count] : pending_hits) {
    auto it = idx.meta.find(key);
    if (it != idx.meta.end()) it->second.hits += count;
  }
  return idx;
}

bool index_readable(const IndexData& idx) {
  return idx.version == 1 || idx.version == kEvalCacheFormatVersion;
}

std::atomic<unsigned> g_tmp_counter{0};

/// Writes `content` to `path` atomically: unique temp file in the same
/// directory, then rename (atomic on POSIX).  Readers see either the old
/// file or the complete new one, never a prefix.
bool atomic_write(const fs::path& path, const std::string& content) {
  const unsigned seq = g_tmp_counter.fetch_add(1, std::memory_order_relaxed);
  fs::path tmp = path;
  tmp += ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
         std::to_string(seq);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << content;
    out.flush();
    if (!out) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

std::string entry_record_line(int version, const EvalCacheKey& key,
                              const EvalCacheMeta& meta) {
  std::string line =
      "entry " + hex64(key.trace_hash) + " " + hex64(key.options_hash);
  if (version >= 2) {
    line += " " + std::to_string(meta.generation) + " " +
            std::to_string(meta.hits) + " " + std::to_string(meta.bytes);
  }
  line += "\n";
  return line;
}

bool ensure_dir(const fs::path& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  return !ec || fs::is_directory(dir);
}

/// Appends `lines` (whole index lines) in one write, creating the index
/// with a current-version header when it does not exist yet.  Refuses
/// (returns false) when the index carries a future or unreadable header:
/// appending there would "store" records no reader could trust.
bool append_index_lines(const fs::path& dir, const IndexData& idx,
                        const std::string& lines) {
  const fs::path index = dir / kIndexName;
  if (idx.version < 0 || idx.version > kEvalCacheFormatVersion) return false;
  std::ofstream out(index, std::ios::app);
  if (!out) return false;
  std::string text;
  if (idx.version == 0) text += index_header(kEvalCacheFormatVersion) + "\n";
  text += lines;
  out << text;
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace

std::string serialize_eval_entry(const EvalCacheEntry& entry) {
  std::ostringstream os;
  os << kEntryMagic << " " << kEvalCacheEntryVersion << "\n";
  os << "key " << hex64(entry.key.trace_hash) << " " << hex64(entry.key.options_hash)
     << "\n";
  os << "points " << entry.points.size() << "\n";
  for (const DesignPoint& p : entry.points) {
    os << "p " << quote_field(p.architecture) << " " << (p.feasible ? 1 : 0) << " "
       << double_bits(p.metrics.area_units) << " " << double_bits(p.metrics.delay_ns)
       << " " << double_bits(p.metrics.clk_to_out_ns) << " "
       << double_bits(p.metrics.reg_to_reg_ns) << " " << p.metrics.cells << " "
       << p.metrics.flipflops << " " << p.metrics.buffers_added << " "
       << quote_field(p.note) << "\n";
  }
  os << "pareto " << entry.pareto.size();
  for (std::size_t i : entry.pareto) os << " " << i;
  os << "\n";
  std::string payload = os.str();
  payload += "sum " + hex64(payload_checksum(payload)) + "\n";
  return payload;
}

bool parse_eval_entry(const std::string& text, EvalCacheEntry& out) {
  // The checksum line is the last line; everything before it is the payload
  // the checksum covers.  A truncated file fails here.  (size >= 2 keeps
  // the size-2 search start and the sum_line length below from wrapping.)
  if (text.size() < 2 || text.back() != '\n') return false;
  const std::size_t last_nl = text.find_last_of('\n', text.size() - 2);
  if (last_nl == std::string::npos) return false;
  const std::string_view payload(text.data(), last_nl + 1);
  const std::string_view sum_line(text.data() + last_nl + 1,
                                  text.size() - last_nl - 2);
  {
    const auto tokens = split_tokens(sum_line);
    std::uint64_t sum = 0;
    if (tokens.size() != 2 || tokens[0] != "sum" || !parse_hex64(tokens[1], sum) ||
        tokens[1].size() != 16 || sum != payload_checksum(payload))
      return false;
  }

  std::istringstream in{std::string(payload)};
  std::string line;

  if (!std::getline(in, line)) return false;
  {
    const auto tokens = split_tokens(line);
    std::uint64_t version = 0;
    if (tokens.size() != 2 || tokens[0] != kEntryMagic ||
        !parse_u64(tokens[1], version) ||
        version != static_cast<std::uint64_t>(kEvalCacheEntryVersion))
      return false;
  }

  EvalCacheEntry entry;
  if (!std::getline(in, line)) return false;
  {
    const auto tokens = split_tokens(line);
    if (tokens.size() != 3 || tokens[0] != "key" ||
        !parse_hex64(tokens[1], entry.key.trace_hash) || tokens[1].size() != 16 ||
        !parse_hex64(tokens[2], entry.key.options_hash) || tokens[2].size() != 16)
      return false;
  }

  std::uint64_t n_points = 0;
  if (!std::getline(in, line)) return false;
  {
    const auto tokens = split_tokens(line);
    if (tokens.size() != 2 || tokens[0] != "points" || !parse_u64(tokens[1], n_points))
      return false;
    if (n_points > (1u << 20)) return false;  // implausible: reject, don't allocate
  }

  entry.points.reserve(n_points);
  for (std::uint64_t i = 0; i < n_points; ++i) {
    if (!std::getline(in, line)) return false;
    const auto tokens = split_tokens(line);
    if (tokens.size() != 11 || tokens[0] != "p") return false;
    DesignPoint p;
    std::uint64_t feasible = 0, cells = 0, ffs = 0, bufs = 0;
    if (!unquote_field(tokens[1], p.architecture) ||
        !parse_u64(tokens[2], feasible) || feasible > 1 ||
        !parse_double_bits(tokens[3], p.metrics.area_units) ||
        !parse_double_bits(tokens[4], p.metrics.delay_ns) ||
        !parse_double_bits(tokens[5], p.metrics.clk_to_out_ns) ||
        !parse_double_bits(tokens[6], p.metrics.reg_to_reg_ns) ||
        !parse_u64(tokens[7], cells) || !parse_u64(tokens[8], ffs) ||
        !parse_u64(tokens[9], bufs) || !unquote_field(tokens[10], p.note))
      return false;
    p.feasible = feasible != 0;
    p.metrics.cells = static_cast<std::size_t>(cells);
    p.metrics.flipflops = static_cast<std::size_t>(ffs);
    p.metrics.buffers_added = static_cast<std::size_t>(bufs);
    entry.points.push_back(std::move(p));
  }

  if (!std::getline(in, line)) return false;
  {
    const auto tokens = split_tokens(line);
    std::uint64_t n_pareto = 0;
    if (tokens.size() < 2 || tokens[0] != "pareto" || !parse_u64(tokens[1], n_pareto) ||
        tokens.size() != 2 + n_pareto)
      return false;
    entry.pareto.reserve(n_pareto);
    for (std::uint64_t i = 0; i < n_pareto; ++i) {
      std::uint64_t idx = 0;
      if (!parse_u64(tokens[2 + i], idx) || idx >= entry.points.size()) return false;
      entry.pareto.push_back(static_cast<std::size_t>(idx));
    }
  }

  if (std::getline(in, line)) return false;  // trailing junk inside the checksum
  out = std::move(entry);
  return true;
}

EvalCacheDir::EvalCacheDir(std::string dir) : dir_(std::move(dir)) {}

std::vector<EvalCacheEntry> EvalCacheDir::load_all(EvalCacheLoadStats* stats) const {
  EvalCacheLoadStats local;
  std::vector<EvalCacheEntry> entries;
  const fs::path dir(dir_);
  IndexData idx = read_index(dir);
  local.skipped += idx.damage;
  std::vector<EvalCacheKey> keys =
      index_readable(idx) ? std::move(idx.keys) : std::vector<EvalCacheKey>{};
  std::sort(keys.begin(), keys.end(), key_less);
  for (const EvalCacheKey& key : keys) {
    std::string text;
    EvalCacheEntry entry;
    if (!read_payload(dir / entry_filename(key), text) ||
        !parse_eval_entry(text, entry) || !(entry.key == key)) {
      ++local.skipped;
      continue;
    }
    ++local.loaded;
    entries.push_back(std::move(entry));
  }
  if (stats) *stats = local;
  return entries;
}

bool EvalCacheDir::load_entry(const EvalCacheKey& key, EvalCacheEntry& out) const {
  std::string text;
  EvalCacheEntry entry;
  if (!read_payload(fs::path(dir_) / entry_filename(key), text) ||
      !parse_eval_entry(text, entry) || !(entry.key == key))
    return false;
  out = std::move(entry);
  return true;
}

std::vector<EvalCacheRecord> EvalCacheDir::read_records(
    std::size_t* index_damage) const {
  IndexData idx = read_index(fs::path(dir_));
  if (index_damage) *index_damage = idx.damage;
  std::vector<EvalCacheRecord> records;
  if (!index_readable(idx)) return records;
  records.reserve(idx.meta.size());
  for (const auto& [key, meta] : idx.meta)
    records.push_back({{key.first, key.second}, meta});
  return records;  // std::map iteration == key order
}

bool EvalCacheDir::store(const EvalCacheEntry& entry) {
  return store_batch({entry}) == 1;
}

std::size_t EvalCacheDir::store_batch(const std::vector<EvalCacheEntry>& entries) {
  if (entries.empty()) return 0;
  const fs::path dir(dir_);
  if (!ensure_dir(dir)) return 0;
  const IndexData idx = read_index(dir);
  if (idx.version < 0 || idx.version > kEvalCacheFormatVersion) return 0;
  const int record_version = idx.version == 0 ? kEvalCacheFormatVersion : idx.version;

  std::vector<const EvalCacheEntry*> sorted;
  sorted.reserve(entries.size());
  for (const EvalCacheEntry& e : entries) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(),
            [](const EvalCacheEntry* a, const EvalCacheEntry* b) {
              return key_less(a->key, b->key);
            });

  // One insertion generation for the whole batch: entries flushed together
  // age together, and the assignment is independent of flush scheduling.
  EvalCacheMeta meta;
  meta.generation = idx.max_generation + 1;

  std::string lines;
  std::size_t written = 0;
  for (const EvalCacheEntry* e : sorted) {
    const std::string payload = serialize_eval_entry(*e);
    if (!atomic_write(dir / entry_filename(e->key), payload)) continue;
    meta.bytes = payload.size();
    lines += entry_record_line(record_version, e->key, meta);
    ++written;
  }
  if (written == 0) return 0;
  return append_index_lines(dir, idx, lines) ? written : 0;
}

bool EvalCacheDir::record_hits(
    const std::vector<std::pair<EvalCacheKey, std::uint64_t>>& hits) {
  if (hits.empty()) return true;
  const fs::path dir(dir_);
  const IndexData idx = read_index(dir);
  // Hit records exist only in the v2 grammar; a v1 index keeps working
  // without them (its entries just look cold to prune).
  if (idx.version != kEvalCacheFormatVersion) return false;

  std::vector<std::pair<EvalCacheKey, std::uint64_t>> sorted;
  for (const auto& [key, count] : hits)
    if (count != 0 && idx.meta.count(to_pair(key))) sorted.push_back({key, count});
  if (sorted.empty()) return true;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return key_less(a.first, b.first); });

  std::string lines;
  for (const auto& [key, count] : sorted)
    lines += "hit " + hex64(key.trace_hash) + " " + hex64(key.options_hash) + " " +
             std::to_string(count) + "\n";
  return append_index_lines(dir, idx, lines);
}

namespace {

/// Shared core of compact/prune/merge: reduces `dst` (unioned with `srcs`)
/// to the canonical directory form — validated entries only, combined
/// metadata, key-sorted v2 index written atomically, and no unreferenced
/// files.  See the header contracts of compact() and merge().
struct CanonOut {
  EvalCacheDir::MaintenanceStats m;
  std::size_t copied = 0;  ///< payloads newly written from a source
  std::size_t failed = 0;  ///< destination writes that failed
};

void scan_payload_files(const fs::path& dir,
                        std::map<KeyPair, std::vector<fs::path>>& files) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return;
  for (const auto& e : it) {
    if (!e.is_regular_file(ec) || ec) continue;
    EvalCacheKey key;
    if (!parse_entry_filename(e.path().filename().string(), key)) continue;
    files[to_pair(key)].push_back(e.path());
  }
}

CanonOut canonicalize(const fs::path& dst, const std::vector<fs::path>& srcs,
                      std::uint64_t max_entries, std::uint64_t max_bytes) {
  CanonOut out;
  const bool dst_exists = fs::is_directory(dst);
  if (!dst_exists && srcs.empty()) return out;  // nothing to do, nothing to create

  IndexData didx = dst_exists ? read_index(dst) : IndexData{};
  if (didx.version > kEvalCacheFormatVersion) {
    out.m.ok = false;  // future cache: refuse rather than destroy it
    return out;
  }

  // Record union: dst index, then every source index.  combine_meta is
  // commutative and associative, so the result is independent of source
  // order — the property behind merge/compact commutation.
  std::map<KeyPair, EvalCacheMeta> records = std::move(didx.meta);
  std::set<KeyPair> indexed;
  for (const auto& [key, meta] : records) indexed.insert(key);
  for (const fs::path& src : srcs) {
    IndexData sidx = read_index(src);
    if (!index_readable(sidx)) continue;
    for (const auto& [key, meta] : sidx.meta) {
      auto [it, inserted] = records.try_emplace(key, meta);
      if (!inserted) combine_meta(it->second, meta);
      indexed.insert(key);
    }
  }

  // Payload candidates: dst files first (already in place), then sources.
  // Valid files whose index record was lost (torn index write) are adopted
  // back with default metadata.
  std::map<KeyPair, std::vector<fs::path>> files;
  if (dst_exists) scan_payload_files(dst, files);
  for (const fs::path& src : srcs) scan_payload_files(src, files);
  for (const auto& [key, paths] : files) records.try_emplace(key, EvalCacheMeta{});

  struct Kept {
    EvalCacheKey key;
    EvalCacheMeta meta;
    std::string canonical;
    bool dst_canonical = false;  ///< dst already holds exactly these bytes
    bool from_src = false;       ///< the valid payload came from a source dir
  };
  std::vector<Kept> kept;
  for (const auto& [pair, meta] : records) {
    const EvalCacheKey key{pair.first, pair.second};
    auto fit = files.find(pair);
    Kept k;
    bool valid = false;
    if (fit != files.end()) {
      for (const fs::path& path : fit->second) {
        std::string text;
        EvalCacheEntry entry;
        if (!read_payload(path, text) || !parse_eval_entry(text, entry) ||
            !(entry.key == key))
          continue;
        k.canonical = serialize_eval_entry(entry);
        const bool in_dst = dst_exists && path.parent_path() == dst;
        k.dst_canonical = in_dst && text == k.canonical;
        k.from_src = !in_dst;
        valid = true;
        break;
      }
    }
    if (!valid) {
      ++out.m.dropped;
      continue;
    }
    k.key = key;
    k.meta = meta;
    k.meta.bytes = k.canonical.size();
    if (!indexed.count(pair)) ++out.m.adopted;
    kept.push_back(std::move(k));
  }

  // Budget: evict in ascending (hits, generation, key) order — least-hit
  // first, then oldest generation — until both limits hold.  Evicting from
  // the bottom of a fixed priority order keeps the decision a pure function
  // of the recorded metadata.
  std::uint64_t total_bytes = 0;
  for (const Kept& k : kept) total_bytes += k.meta.bytes;
  if (kept.size() > max_entries || total_bytes > max_bytes) {
    std::vector<std::size_t> order(kept.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const Kept& x = kept[a];
      const Kept& y = kept[b];
      if (x.meta.hits != y.meta.hits) return x.meta.hits < y.meta.hits;
      if (x.meta.generation != y.meta.generation)
        return x.meta.generation < y.meta.generation;
      return key_less(x.key, y.key);
    });
    std::set<std::size_t> evict;
    for (std::size_t i : order) {
      if (kept.size() - evict.size() <= max_entries && total_bytes <= max_bytes)
        break;
      evict.insert(i);
      total_bytes -= kept[i].meta.bytes;
    }
    std::vector<Kept> survivors;
    survivors.reserve(kept.size() - evict.size());
    for (std::size_t i = 0; i < kept.size(); ++i) {
      if (evict.count(i))
        ++out.m.evicted;
      else
        survivors.push_back(std::move(kept[i]));
    }
    kept = std::move(survivors);  // still key-sorted: evict only removes
  }

  if (!dst_exists && !ensure_dir(dst)) {
    out.m.ok = false;
    out.failed = kept.size();
    return out;
  }

  // Materialize: write every kept payload whose destination bytes are not
  // already canonical, then atomically replace the index.
  std::set<std::string> referenced;
  std::string index_text = index_header(kEvalCacheFormatVersion) + "\n";
  for (auto it = kept.begin(); it != kept.end();) {
    Kept& k = *it;
    if (!k.dst_canonical &&
        !atomic_write(dst / entry_filename(k.key), k.canonical)) {
      ++out.failed;
      it = kept.erase(it);  // cannot index what was not written
      continue;
    }
    if (k.from_src) ++out.copied;
    referenced.insert(entry_filename(k.key));
    index_text += entry_record_line(kEvalCacheFormatVersion, k.key, k.meta);
    ++out.m.kept;
    out.m.bytes_kept += k.meta.bytes;
    ++it;
  }
  if (!atomic_write(dst / kIndexName, index_text)) {
    out.m.ok = false;
    return out;
  }

  // Cleanup: after a successful rewrite the directory contains exactly the
  // index plus one payload per indexed entry — corrupt payloads, evicted
  // entries, and stale temp files all go.
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dst, ec)) {
    if (!e.is_regular_file(ec) || ec) continue;
    const std::string name = e.path().filename().string();
    if (name == kIndexName || referenced.count(name)) continue;
    std::error_code rm;
    if (fs::remove(e.path(), rm) && !rm) ++out.m.files_removed;
  }
  return out;
}

}  // namespace

EvalCacheDir::MaintenanceStats EvalCacheDir::compact() {
  return canonicalize(fs::path(dir_), {}, UINT64_MAX, UINT64_MAX).m;
}

EvalCacheDir::MaintenanceStats EvalCacheDir::prune(std::uint64_t max_entries,
                                                   std::uint64_t max_bytes) {
  return canonicalize(fs::path(dir_), {}, max_entries, max_bytes).m;
}

EvalCacheDir::DirStats EvalCacheDir::stats() const {
  DirStats s;
  const fs::path dir(dir_);
  const IndexData idx = read_index(dir);
  s.index_version = idx.version < 0 ? 0 : idx.version;
  s.index_damage = idx.damage;
  if (index_readable(idx)) {
    s.entries = idx.meta.size();
    s.max_generation = idx.max_generation;
    for (const auto& [key, meta] : idx.meta) {
      s.recorded_bytes += meta.bytes;
      s.hits += meta.hits;
    }
  }
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (!ec) {
    std::size_t present = 0;
    for (const auto& e : it) {
      if (!e.is_regular_file(ec) || ec) continue;
      const std::string name = e.path().filename().string();
      if (name == kIndexName) continue;
      EvalCacheKey key;
      if (!parse_entry_filename(name, key)) {
        ++s.stale_files;
        continue;
      }
      ++s.payload_files;
      std::error_code sz;
      const auto bytes = fs::file_size(e.path(), sz);
      if (!sz) s.payload_bytes += bytes;
      if (index_readable(idx) && idx.meta.count(to_pair(key)))
        ++present;
      else
        ++s.orphan_payloads;
    }
    s.missing_payloads = s.entries - std::min(s.entries, present);
  }
  return s;
}

EvalCacheDir::VerifyStats EvalCacheDir::verify() const {
  VerifyStats v;
  const fs::path dir(dir_);
  const IndexData idx = read_index(dir);
  v.index_damage = idx.damage;
  std::set<KeyPair> indexed;
  if (index_readable(idx)) {
    for (const auto& [key, meta] : idx.meta) {
      indexed.insert(key);
      const EvalCacheKey k{key.first, key.second};
      const fs::path path = dir / entry_filename(k);
      std::error_code ec;
      if (!fs::exists(path, ec) || ec) {
        ++v.missing;
        continue;
      }
      std::string text;
      EvalCacheEntry entry;
      if (!read_payload(path, text) || !parse_eval_entry(text, entry) ||
          !(entry.key == k))
        ++v.corrupt;
      else
        ++v.valid;
    }
  }
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (!ec) {
    for (const auto& e : it) {
      if (!e.is_regular_file(ec) || ec) continue;
      const std::string name = e.path().filename().string();
      if (name == kIndexName) continue;
      EvalCacheKey key;
      if (!parse_entry_filename(name, key)) {
        ++v.stale_files;
        continue;
      }
      if (indexed.count(to_pair(key))) continue;
      std::string text;
      EvalCacheEntry entry;
      if (read_payload(e.path(), text) && parse_eval_entry(text, entry) &&
          entry.key == key)
        ++v.orphans;
      else
        ++v.orphan_corrupt;
    }
  }
  return v;
}

EvalCacheDir::MergeStats EvalCacheDir::merge(const std::string& dst,
                                             const std::string& src) {
  const CanonOut out =
      canonicalize(fs::path(dst), {fs::path(src)}, UINT64_MAX, UINT64_MAX);
  return {out.copied, out.failed};
}

std::string eval_cache_stats_json(const EvalCacheDir::DirStats& s) {
  std::string out = "{\n";
  out += "  \"index_version\": " + std::to_string(s.index_version) + ",\n";
  out += "  \"entries\": " + std::to_string(s.entries) + ",\n";
  out += "  \"payload_files\": " + std::to_string(s.payload_files) + ",\n";
  out += "  \"missing_payloads\": " + std::to_string(s.missing_payloads) + ",\n";
  out += "  \"orphan_payloads\": " + std::to_string(s.orphan_payloads) + ",\n";
  out += "  \"stale_files\": " + std::to_string(s.stale_files) + ",\n";
  out += "  \"index_damage\": " + std::to_string(s.index_damage) + ",\n";
  out += "  \"recorded_bytes\": " + std::to_string(s.recorded_bytes) + ",\n";
  out += "  \"payload_bytes\": " + std::to_string(s.payload_bytes) + ",\n";
  out += "  \"hits\": " + std::to_string(s.hits) + ",\n";
  out += "  \"max_generation\": " + std::to_string(s.max_generation) + "\n";
  out += "}\n";
  return out;
}

}  // namespace addm::core
