#include "core/explorer.hpp"

#include <algorithm>
#include <sstream>

#include "core/cntag.hpp"
#include "core/multicounter.hpp"
#include "core/sfm.hpp"
#include "core/srag_elab.hpp"
#include "core/srag_mapper.hpp"
#include "core/verify.hpp"
#include "seq/periodicity.hpp"
#include "synth/fsm.hpp"

namespace addm::core {

using netlist::NetId;
using netlist::NetlistBuilder;

namespace {

Candidate build_fsm_2d(const seq::AddressTrace& trace, synth::FsmEncoding enc,
                       const logic::MinimizeOptions& minimize) {
  const auto rows = trace.rows();
  const auto cols = trace.cols();
  const std::size_t L = trace.length();

  synth::FsmSpec row_spec;
  row_spec.next_state.resize(L);
  for (std::size_t i = 0; i < L; ++i)
    row_spec.next_state[i] = static_cast<std::uint32_t>((i + 1) % L);
  row_spec.select_of_state = rows;
  row_spec.num_select_lines = trace.geometry().height;

  synth::FsmSpec col_spec = row_spec;
  col_spec.select_of_state = cols;
  col_spec.num_select_lines = trace.geometry().width;

  Candidate c;
  NetlistBuilder b(c.netlist);
  const NetId next = b.input("next");
  const NetId reset = b.input("reset");
  const synth::FsmStyle style{enc, /*flat_mapping=*/true, minimize};
  const auto row_ports = synth::build_fsm(b, row_spec, next, reset, style);
  const auto col_ports = synth::build_fsm(b, col_spec, next, reset, style);
  b.output_bus("rs", row_ports.select);
  b.output_bus("cs", col_ports.select);
  return c;
}

bool is_fifo(const seq::AddressTrace& trace) {
  const auto& a = trace.linear();
  if (a.size() != trace.geometry().size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != i) return false;
  return true;
}

bool always(const seq::AddressTrace&, const ExploreOptions&) { return true; }

BuildResult build_srag(const seq::AddressTrace& trace, const ExploreOptions&) {
  try {
    Srag2dBuild srag = build_srag_2d_for_trace(trace);
    std::ostringstream note;
    note << "row: " << srag.row.num_registers() << " regs/" << srag.row.num_flipflops()
         << " ffs dC=" << srag.row.div_count << " pC=" << srag.row.pass_count
         << "; col: " << srag.col.num_registers() << " regs/" << srag.col.num_flipflops()
         << " ffs dC=" << srag.col.div_count << " pC=" << srag.col.pass_count;
    Candidate c;
    c.netlist = std::move(srag.netlist);
    c.note = note.str();
    return c;
  } catch (const std::invalid_argument& e) {
    return std::string(e.what());
  }
}

BuildResult build_multicounter(const seq::AddressTrace& trace, const ExploreOptions&) {
  auto row_map = map_sequence_multicounter(
      trace.rows(), static_cast<std::uint32_t>(trace.geometry().height));
  auto col_map = map_sequence_multicounter(
      trace.cols(), static_cast<std::uint32_t>(trace.geometry().width));
  if (!row_map.ok()) return "row: " + row_map.detail;
  if (!col_map.ok()) return "col: " + col_map.detail;
  Candidate c;
  NetlistBuilder b(c.netlist);
  const NetId next = b.input("next");
  const NetId reset = b.input("reset");
  const auto rp = build_multi_srag(b, *row_map.config, next, reset);
  const auto cp = build_multi_srag(b, *col_map.config, next, reset);
  b.output_bus("rs", rp.select);
  b.output_bus("cs", cp.select);
  return c;
}

GeneratorEntry cntag_entry(std::string name, synth::DecoderStyle style,
                           std::string note) {
  auto build = [style, note](const seq::AddressTrace& trace,
                             const ExploreOptions& opt) -> BuildResult {
    CntAgOptions copt;
    copt.decoder_style = style;
    copt.minimize = opt.minimize;
    Candidate c;
    c.netlist = elaborate_cntag(trace, copt);
    c.note = note;
    return c;
  };
  return {std::move(name), always, std::move(build)};
}

GeneratorEntry fsm_entry(std::string name, synth::FsmEncoding enc) {
  auto applicable = [](const seq::AddressTrace&, const ExploreOptions& opt) {
    return opt.include_fsm;
  };
  auto build = [enc](const seq::AddressTrace& trace,
                     const ExploreOptions& opt) -> BuildResult {
    if (trace.length() > opt.max_fsm_states)
      return "synthesis impractical beyond " + std::to_string(opt.max_fsm_states) +
             " states (sequence has " + std::to_string(trace.length()) + ")";
    return build_fsm_2d(trace, enc, opt.minimize);
  };
  return {std::move(name), applicable, std::move(build)};
}

BuildResult build_sfm(const seq::AddressTrace& trace, const ExploreOptions&) {
  if (!is_fifo(trace)) return std::string("SFM supports FIFO access only");
  Candidate c;
  c.netlist = elaborate_sfm(trace.geometry().size());
  c.note = "one-hot FIFO pointers (1-D memory)";
  c.drive = {{"next_read", true}, {"next_write", false}};
  c.row_bus = "rsel";  // head pointer walks the FIFO order = linear trace
  c.col_bus.clear();
  return c;
}

std::vector<GeneratorEntry> build_registry() {
  std::vector<GeneratorEntry> reg;
  reg.push_back({"SRAG", always, build_srag});
  reg.push_back({"SRAG-multicounter", always, build_multicounter});
  reg.push_back(cntag_entry("CntAG-flat", synth::DecoderStyle::Flat, "flat decoders"));
  reg.push_back(cntag_entry("CntAG-shared", synth::DecoderStyle::SharedChain,
                            "shared chain decoders (2002 flow)"));
  reg.push_back(cntag_entry("CntAG-predecoded", synth::DecoderStyle::SharedBalanced,
                            "balanced predecoders (modern flow)"));
  reg.push_back(fsm_entry("FSM-binary", synth::FsmEncoding::Binary));
  reg.push_back(fsm_entry("FSM-gray", synth::FsmEncoding::Gray));
  reg.push_back(fsm_entry("FSM-onehot", synth::FsmEncoding::OneHot));
  reg.push_back({"SFM", always, build_sfm});
  return reg;
}

}  // namespace

DesignPoint GeneratorEntry::elaborate(const seq::AddressTrace& trace,
                                      const ExploreOptions& opt) const {
  DesignPoint p;
  p.architecture = name;
  BuildResult built = build(trace, opt);
  if (auto* why = std::get_if<std::string>(&built)) {
    p.note = std::move(*why);
    return p;
  }
  Candidate& c = std::get<Candidate>(built);
  p.metrics = measure_netlist(c.netlist, opt.library, opt.max_fanout);
  p.feasible = true;
  p.note = std::move(c.note);
  return p;
}

const std::vector<GeneratorEntry>& generator_registry() {
  static const std::vector<GeneratorEntry> registry = build_registry();
  return registry;
}

std::vector<std::string> generator_names() {
  std::vector<std::string> names;
  for (const GeneratorEntry& e : generator_registry()) names.push_back(e.name);
  return names;
}

std::vector<DesignPoint> explore_generators(const seq::AddressTrace& trace,
                                            const ExploreOptions& opt) {
  // Periodicity compression: when the trace is exactly k >= 2 whole passes
  // of one period (no warm-up prefix, no partial tail — the only shape a
  // cyclic generator reproduces exactly), evaluate every candidate on a
  // single period and annotate the notes with the factorization.  The
  // factorization is itself deterministic, so the result stays a pure
  // function of (trace, opt).  Anything else — including every built-in
  // synthetic suite trace, which are all aperiodic — falls through to the
  // unchanged full-trace path.
  if (opt.compress_periodic) {
    seq::CompressedTrace ct = seq::compress_periodic(trace);
    if (ct.pure() && ct.compressed()) {
      const std::size_t period_len = ct.period.size();
      seq::AddressTrace one_period(trace.geometry(), std::move(ct.period),
                                   trace.name());
      ExploreOptions inner = opt;
      inner.compress_periodic = false;
      std::vector<DesignPoint> points = explore_generators(one_period, inner);
      const std::string tag = "[periodic " + std::to_string(ct.repeats) + "x" +
                              std::to_string(period_len) + "]";
      for (DesignPoint& p : points)
        p.note = p.note.empty() ? tag : p.note + " " + tag;
      return points;
    }
  }

  // Serial, in registry order: an exception leaves at the registry-first
  // failing entry, so even error strings are deterministic.  One minimize
  // memo spans elaboration and front verification of this trace.
  const logic::MinimizeMemo memo;
  std::vector<DesignPoint> points;
  for (const GeneratorEntry& e : generator_registry()) {
    if (!opt.archs.empty() &&
        std::find(opt.archs.begin(), opt.archs.end(), e.name) == opt.archs.end())
      continue;
    if (e.applicable(trace, opt)) points.push_back(e.elaborate(trace, opt));
  }

  // Opt-in gate-level verification of the Pareto front (core/verify.hpp),
  // annotating notes deterministically — the result stays a pure function
  // of (trace, opt), and the flag is fingerprinted so annotated and plain
  // runs never share cache keys.
  if (opt.verify_front)
    verify_pareto_points(trace, points, pareto_front(points), opt);
  return points;
}

std::vector<std::size_t> pareto_front(const std::vector<DesignPoint>& points) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!points[i].feasible) continue;
    bool dominated = false;
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (i == j || !points[j].feasible) continue;
      const bool no_worse = points[j].metrics.area_units <= points[i].metrics.area_units &&
                            points[j].metrics.delay_ns <= points[i].metrics.delay_ns;
      const bool better = points[j].metrics.area_units < points[i].metrics.area_units ||
                          points[j].metrics.delay_ns < points[i].metrics.delay_ns;
      if (no_worse && better) {
        dominated = true;
        break;
      }
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

std::string format_exploration(const std::vector<DesignPoint>& points) {
  const auto front = pareto_front(points);
  auto on_front = [&](std::size_t i) {
    return std::find(front.begin(), front.end(), i) != front.end();
  };
  const std::string name_header = "architecture";
  std::size_t name_w = name_header.size();
  for (const DesignPoint& p : points) name_w = std::max(name_w, p.architecture.size());
  name_w += 2;
  std::ostringstream os;
  os.precision(3);
  os << std::fixed;
  os << name_header;
  for (std::size_t pad = name_header.size(); pad < name_w; ++pad) os << ' ';
  os << "feasible  area(units)  delay(ns)  pareto  note\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const DesignPoint& p = points[i];
    os << p.architecture;
    for (std::size_t pad = p.architecture.size(); pad < name_w; ++pad) os << ' ';
    if (p.feasible) {
      std::ostringstream area, delay;
      area.precision(0);
      area << std::fixed << p.metrics.area_units;
      delay.precision(3);
      delay << std::fixed << p.metrics.delay_ns;
      os << "yes       ";
      os << area.str();
      for (std::size_t pad = area.str().size(); pad < 13; ++pad) os << ' ';
      os << delay.str();
      for (std::size_t pad = delay.str().size(); pad < 11; ++pad) os << ' ';
      os << (on_front(i) ? "*       " : "        ");
      os << p.note << "\n";
    } else {
      os << "no        -            -          -       " << p.note << "\n";
    }
  }
  return os.str();
}

}  // namespace addm::core
