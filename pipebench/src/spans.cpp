#include <fstream>
#include <iomanip>
#include <stdexcept>

#include "bench.hpp"
#include "serve/protocol.hpp"

namespace pipebench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
      .count();
}

int Tracer::open(std::string name, std::string layer, std::uint64_t request) {
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.request = request;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

double Tracer::total_s(const std::string& name) const {
  double sum = 0;
  for (double d : durations_s(name)) sum += d;
  return sum;
}

std::vector<double> Tracer::durations_s(const std::string& name) const {
  std::vector<double> v;
  for (const Span& s : spans_)
    if (s.name == name) v.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  return v;
}

std::map<std::string, double> Tracer::self_s_by_layer() const {
  // Spans are recorded on one thread and strictly nested, so the children
  // of a span never overlap and their union is their sum.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[spans_[i].layer] +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns - child_ns[i]) * 1e-9;
  return self;
}

double Tracer::coverage(int root) const {
  const Span& r = spans_[static_cast<std::size_t>(root)];
  // Program-layer spans are leaves, so their durations never overlap.
  std::int64_t covered = 0;
  for (const Span& s : spans_)
    if (s.layer != "bench" && s.start_ns >= r.start_ns && s.end_ns <= r.end_ns)
      covered += s.end_ns - s.start_ns;
  return static_cast<double>(covered) / static_cast<double>(r.end_ns - r.start_ns);
}

void Tracer::write(const fs::path& dir, const std::string& stem,
                   const std::string& host_json) const {
  using addm::serve::json_escape;
  fs::create_directories(dir);
  std::ofstream js(dir / (stem + ".spans.json"));
  js.precision(9);
  js << "{\"host\": " << host_json << ",\n \"self_s_by_layer\": {";
  bool first = true;
  for (const auto& [layer, s] : self_s_by_layer()) {
    js << (first ? "" : ", ") << "\"" << json_escape(layer) << "\": " << s;
    first = false;
  }
  js << "},\n \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    js << "  {\"id\": " << i << ", \"name\": \"" << json_escape(s.name)
       << "\", \"layer\": \"" << json_escape(s.layer) << "\", \"start_ns\": " << s.start_ns
       << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
       << ", \"request\": " << s.request << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  js << " ]}\n";

  // Chrome Trace Event format: complete ("X") events in microseconds, which
  // Perfetto and chrome://tracing open offline.
  std::ofstream ct(dir / (stem + ".trace.json"));
  ct << std::fixed << std::setprecision(3);
  ct << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    ct << " {\"name\": \"" << json_escape(s.name) << "\", \"cat\": \"" << json_escape(s.layer)
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
       << static_cast<double>(s.start_ns) * 1e-3
       << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
       << ", \"request\": " << s.request << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  ct << "]}\n";
  if (!js || !ct) throw std::runtime_error("cannot write span files to " + dir.string());
}

}  // namespace pipebench
