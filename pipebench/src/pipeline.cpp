// The traced run.  It drives the exploration path one public call at a time
// and records a span around each call, in four stages over one workload's
// trace files:
//
//   pass    parse -> fingerprint -> [compress] -> each registry candidate's
//           elaborate -> Pareto front -> front verification -> report
//           render.  Its report must byte-equal an untraced serial
//           BatchExplorer run over the same files, which also gives the
//           tracing overhead.
//   probe   tech stages (buffering, STA, area) on each trace's CntAG
//           netlist, plus periodicity compression where the workload's own
//           options do not compress.
//   batch   memo-warm BatchExplorer runs and report rendering.
//   serve   an in-process daemon: request encode/decode, client round
//           trips in both wire modes, direct service calls, cache flushes.
#include <algorithm>
#include <exception>
#include <fstream>

#include "bench.hpp"
#include "core/cntag.hpp"
#include "core/fingerprint.hpp"
#include "core/verify.hpp"
#include "seq/periodicity.hpp"
#include "seq/stream_io.hpp"
#include "serve_util.hpp"
#include "tech/buffering.hpp"
#include "tech/sta.hpp"

namespace pipebench {

using namespace addm;

namespace {

std::string render_csv(const std::vector<core::BatchEntry>& entries) {
  core::BatchResult r;
  r.entries = entries;
  r.traces = entries.size();
  return core::batch_report_csv(r);
}

/// Registry candidates explore_generators would evaluate for (trace, opt),
/// one span each; an exception becomes the entry's error like in
/// BatchExplorer (the first failing candidate in registry order wins).
void explore_candidates(Tracer& tr, std::uint64_t req, const seq::AddressTrace& trace,
                        const core::ExploreOptions& opt, core::BatchEntry& e) {
  std::exception_ptr error;
  for (const core::GeneratorEntry& g : core::generator_registry()) {
    if (!opt.archs.empty() &&
        std::find(opt.archs.begin(), opt.archs.end(), g.name) == opt.archs.end())
      continue;
    if (!g.applicable(trace, opt)) continue;
    Scope s(tr, "explore." + g.name, "candidate", req);
    try {
      e.points.push_back(g.elaborate(trace, opt));
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (!error) return;
  e.points.clear();
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& ex) {
    e.error = ex.what();
  }
}

}  // namespace

void run_traced(const RunConfig& cfg, const TracedInputs& in, Outcome& out,
                const std::string& host_json) {
  const core::ExploreOptions& opt = in.explore;
  check_fingerprint_pin(out);

  // Untraced serial pass over the same files: the report the traced pass
  // must reproduce.  Timed again after the traced pass (warm, like the
  // traced pass) as the baseline of traced.overhead.
  auto untraced_pass = [&] {
    core::BatchOptions bo;
    bo.explore = opt;
    bo.threads = 1;
    bo.memoize = false;
    core::BatchExplorer bx(bo);
    return core::batch_report_csv(bx.run(read_files(in.files)));
  };
  const std::string ref_csv = untraced_pass();

  Tracer tr;
  const int root = tr.open("traced", "bench", 0);

  // --- pass ---------------------------------------------------------------
  std::vector<core::BatchEntry> entries;
  std::vector<seq::AddressTrace> full, explored;
  std::size_t accesses = 0, points = 0, feasible = 0, cells = 0;
  std::size_t verified = 0, verify_bad = 0;
  double stored = 0, expanded = 0;
  core::ExploreOptions period_opt = opt;
  period_opt.compress_periodic = false;
  const int pass = tr.open("pass", "bench", 0);
  for (std::size_t i = 0; i < in.files.size(); ++i) {
    Scope trace_span(tr, "trace", "bench", i);
    seq::AddressTrace t;
    {
      Scope s(tr, "seq.parse", "seq", i);
      std::ifstream f(in.files[i], std::ios::binary);
      seq::TraceReader reader(f);
      t = reader.read_all();
    }
    if (t.name().empty()) t.set_name(fs::path(in.files[i]).stem().string());
    accesses += t.length();
    core::BatchEntry e;
    e.name = t.name();
    e.geometry = t.geometry();
    e.trace_length = t.length();
    {
      Scope s(tr, "fingerprint", "core", i);
      e.trace_hash = core::trace_fingerprint(t);
    }
    // Periodicity compression as explore_generators applies it: whole passes
    // of one period are explored on a single period, notes tagged.
    seq::AddressTrace x = t;
    const core::ExploreOptions* xopt = &opt;
    std::string tag;
    if (opt.compress_periodic) {
      seq::CompressedTrace ct;
      {
        Scope s(tr, "seq.compress", "seq", i);
        ct = seq::compress_periodic(t);
      }
      stored += static_cast<double>(ct.stored());
      expanded += static_cast<double>(ct.length());
      if (ct.pure() && ct.compressed()) {
        tag = "[periodic " + std::to_string(ct.repeats) + "x" +
              std::to_string(ct.period.size()) + "]";
        x = seq::AddressTrace(t.geometry(), std::move(ct.period), t.name());
        xopt = &period_opt;
      }
    }
    explore_candidates(tr, i, x, *xopt, e);
    if (e.error.empty()) {
      {
        Scope s(tr, "pareto", "core", i);
        e.pareto = core::pareto_front(e.points);
      }
      if (xopt->verify_front) {
        Scope s(tr, "verify", "verify", i);
        const core::FrontVerification v =
            core::verify_pareto_points(x, e.points, e.pareto, *xopt);
        verified += v.verified;
        verify_bad += v.failed + v.skipped;
      }
      if (!tag.empty())
        for (core::DesignPoint& p : e.points) p.note = p.note.empty() ? tag : p.note + " " + tag;
    }
    for (const core::DesignPoint& p : e.points) {
      ++points;
      if (!p.feasible) continue;
      ++feasible;
      cells += p.metrics.cells;
    }
    const std::string problem = entry_problem(e, opt.verify_front, in.periodic_tags[i]);
    out.check(problem.empty(), problem);
    entries.push_back(std::move(e));
    full.push_back(std::move(t));
    explored.push_back(std::move(x));
  }
  std::string traced_csv;
  {
    Scope s(tr, "report.render", "core");
    traced_csv = render_csv(entries);
  }
  tr.close(pass);
  out.check(traced_csv == ref_csv, "traced report differs from the untraced report");
  const double pass_s = tr.total_s("pass");

  // --- probe --------------------------------------------------------------
  std::size_t buffers = 0;
  {
    Scope probe(tr, "probe", "bench");
    for (std::size_t i = 0; i < explored.size(); ++i) {
      if (!opt.compress_periodic) {
        Scope s(tr, "seq.compress", "seq", i);
        const seq::CompressedTrace ct = seq::compress_periodic(full[i]);
        stored += static_cast<double>(ct.stored());
        expanded += static_cast<double>(ct.length());
      }
      core::CntAgOptions copt;  // SharedChain decoders: the CntAG-shared candidate
      copt.minimize = opt.minimize;
      netlist::Netlist nl;
      {
        Scope s(tr, "tech.elaborate_cntag", "candidate", i);
        nl = core::elaborate_cntag(explored[i], copt);
      }
      {
        Scope s(tr, "tech.buffer", "tech", i);
        nl.sweep_dead_cells();
        buffers += tech::insert_buffers(nl, opt.max_fanout).buffers_added;
      }
      tech::TimingReport timing;
      {
        Scope s(tr, "tech.sta", "tech", i);
        timing = tech::analyze_timing(nl, opt.library);
      }
      tech::AreaReport area;
      {
        Scope s(tr, "tech.area", "tech", i);
        area = tech::analyze_area(nl, opt.library);
      }
      // The same netlist measured the same way as the explored candidate.
      for (const core::DesignPoint& p : entries[i].points)
        if (p.architecture == "CntAG-shared" && p.feasible)
          out.check(p.metrics.area_units == area.total &&
                        p.metrics.delay_ns == timing.critical_path_ns,
                    entries[i].name + ": tech probe disagrees with CntAG-shared");
    }
  }

  // --- batch --------------------------------------------------------------
  std::size_t hits = 0, evaluations = 0, report_bytes = 0;
  {
    Scope batch(tr, "batch", "bench");
    core::BatchOptions bo;
    bo.explore = opt;
    bo.threads = in.threads;
    core::BatchExplorer bx(bo);
    for (std::size_t k = 0; k <= in.batch_repeats; ++k) {
      core::BatchResult r;
      {
        // Run 0 fills the memo; the rest are all hits.
        Scope s(tr, k == 0 ? "batch.warm" : "batch.run", "core", k);
        r = bx.run(full);
      }
      hits += r.cache_hits;
      evaluations += r.evaluations;
      std::string csv;
      {
        Scope s(tr, "report.render", "core", k);
        csv = core::batch_report_csv(r);
      }
      report_bytes = csv.size();
      out.check(csv == ref_csv, "memo-warm report differs from the untraced report");
    }
  }

  // --- serve --------------------------------------------------------------
  std::size_t entries_stored = 0;
  std::vector<double> reply_bytes;
  {
    Scope serve_span(tr, "serve", "bench");
    const fs::path dir = cfg.work_dir / "traced_serve";
    fs::create_directories(dir);
    serve::ServiceOptions so;
    so.threads = in.threads;
    so.cache_dir = (dir / "cache").string();
    so.flush_entries = 0;  // flushed explicitly below, one span each
    LocalServer server(so, "traced.sock", 2);
    serve::ServeClient clients[2] = {server.connect(false), server.connect(true)};
    const auto options = option_pairs(opt);
    std::string terr;
    {
      RequestSpec all;
      for (std::size_t f = 0; f < in.files.size(); ++f) all.files.push_back(f);
      serve::ServeClient::Result res;
      Scope s(tr, "serve.warm", "serve");
      const bool ok = clients[0].explore(make_request(all, in.files, options, cfg.seed), res, terr);
      out.check(ok && res.ok, "traced warm-up request failed: " + terr + res.error.message);
    }
    Rng rng(cfg.seed ^ 0x5eedull);
    std::vector<RequestSpec> specs;
    std::vector<std::uint64_t> hashes;
    const std::size_t subset = std::min(in.serve_subset, in.files.size());
    for (std::size_t q = 0; q < in.serve_requests; ++q) {
      RequestSpec spec;
      spec.files = pick_subset(rng, in.files.size(), subset);
      spec.json = q % 2 == 1;
      if (q % 20 == 19) spec.novel = static_cast<long long>(q / 20);
      const serve::ExploreRequest req = make_request(spec, in.files, options, cfg.seed);
      std::string payload;
      {
        Scope s(tr, "protocol.encode", "protocol", q);
        payload = spec.json ? serve::json_explore_request(req)
                            : serve::encode_explore_request(req);
      }
      bool decoded = false;
      std::size_t decoded_traces = 0;
      {
        Scope s(tr, "protocol.decode", "protocol", q);
        std::string error;
        if (spec.json) {
          serve::JsonRequest jr;
          decoded = serve::parse_json_request(payload, jr, error);
          decoded_traces = jr.explore.traces.size();
        } else {
          serve::ExploreRequest back;
          decoded = serve::parse_explore_request(payload, back, error);
          decoded_traces = back.traces.size();
        }
      }
      out.check(decoded && decoded_traces == req.traces.size(), "request did not round-trip");
      serve::ServeClient::Result res;
      bool ok = false;
      {
        Scope s(tr, spec.json ? "serve.json.roundtrip" : "serve.binary.roundtrip", "serve", q);
        ok = clients[spec.json ? 1 : 0].explore(req, res, terr);
      }
      serve::ExploreService::ExploreOutcome direct;
      {
        Scope s(tr, "serve.service", "serve", q);
        direct = server.service().explore(req);
      }
      out.check(ok && res.ok && direct.ok && direct.report == res.body,
                "served request failed or differs from the service: " + terr +
                    res.error.message);
      reply_bytes.push_back(static_cast<double>(res.body.size()));
      specs.push_back(spec);
      hashes.push_back(hash_bytes(res.body));
      if (spec.novel >= 0) {
        Scope s(tr, "cache.flush", "core", q);
        entries_stored += server.service().flush().stored;
      }
    }
    {
      Scope s(tr, "cache.flush", "core");
      entries_stored += server.service().flush().stored;
    }
    // Served bodies against the offline render of the same trace lists.
    std::vector<seq::AddressTrace> novel;
    for (std::size_t k = 0; k < in.serve_requests / 20; ++k) novel.push_back(novel_trace(cfg.seed, k));
    const auto novel_entries = offline_entries(novel, opt, 1);
    for (std::size_t q = 0; q < specs.size(); ++q)
      out.check(hash_bytes(offline_body(specs[q], entries, novel_entries)) == hashes[q],
                "served body differs from the offline render");
  }
  tr.close(root);
  const auto u0 = Clock::now();
  out.check(untraced_pass() == ref_csv, "untraced serial reports differ between passes");
  const double untraced_s = seconds_since(u0);

  // --- metrics ------------------------------------------------------------
  for (const std::string& name : core::generator_names())
    out.metric("explore." + name + "_s", tr.total_s("explore." + name), "s");
  out.metric("explore.points", static_cast<double>(points), "count");
  out.metric("explore.feasible", static_cast<double>(feasible), "count");
  out.metric("explore.cells", static_cast<double>(cells), "count");
  out.metric("pareto_s", tr.total_s("pareto"), "s");
  out.metric("tech.buffer_s", tr.total_s("tech.buffer"), "s");
  out.metric("tech.sta_s", tr.total_s("tech.sta"), "s");
  out.metric("tech.area_s", tr.total_s("tech.area"), "s");
  out.metric("tech.buffers_added", static_cast<double>(buffers), "count");
  out.metric("verify_s", tr.total_s("verify"), "s");
  out.metric("verify.points", static_cast<double>(verified + verify_bad), "count");
  out.metric("verify.failed", static_cast<double>(verify_bad), "count");
  out.metric("seq.parse_s", tr.total_s("seq.parse"), "s");
  out.metric("seq.compress_s", tr.total_s("seq.compress"), "s");
  out.metric("seq.accesses", static_cast<double>(accesses), "count");
  out.metric("seq.compress_ratio", stored / expanded, "ratio");
  out.metric("fingerprint_s", tr.total_s("fingerprint"), "s");
  out.metric("batch.run_s", median(tr.durations_s("batch.run")), "s");
  out.metric("memo.hits", static_cast<double>(hits), "count");
  out.metric("memo.evaluations", static_cast<double>(evaluations), "count");
  out.metric("memo.hit_ratio",
             static_cast<double>(hits) / static_cast<double>(hits + evaluations), "ratio");
  out.metric("report.render_s", median(tr.durations_s("report.render")), "s");
  out.metric("report.bytes", static_cast<double>(report_bytes), "bytes");
  std::vector<double> rt = tr.durations_s("serve.binary.roundtrip");
  const std::vector<double> rt_json = tr.durations_s("serve.json.roundtrip");
  const double rt_binary = median(rt), service = median(tr.durations_s("serve.service"));
  rt.insert(rt.end(), rt_json.begin(), rt_json.end());
  out.metric("serve.roundtrip_s", median(rt), "s");
  out.metric("serve.service_s", service, "s");
  out.metric("serve.wire_s", median(rt) - service, "s");
  out.metric("serve.binary.roundtrip_s", rt_binary, "s");
  out.metric("serve.json.roundtrip_s", median(rt_json), "s");
  out.metric("protocol.encode_s", median(tr.durations_s("protocol.encode")), "s");
  out.metric("protocol.decode_s", median(tr.durations_s("protocol.decode")), "s");
  out.metric("serve.reply_bytes", median(reply_bytes), "bytes");
  out.metric("cache.flush_s", median(tr.durations_s("cache.flush")), "s");
  out.metric("cache.entries_stored", static_cast<double>(entries_stored), "count");
  out.metric("traced.wall_s", tr.total_s("traced"), "s");
  out.metric("traced.coverage", tr.coverage(root), "ratio");
  out.metric("traced.overhead", pass_s / untraced_s, "ratio");
  const auto self = tr.self_s_by_layer();
  for (const char* layer : {"bench", "seq", "core", "candidate", "tech", "verify", "protocol", "serve"}) {
    const auto it = self.find(layer);
    out.metric(std::string("self.") + layer + "_s", it == self.end() ? 0.0 : it->second, "s");
  }
  tr.write(cfg.out_dir, cfg.workload + "-seed" + std::to_string(cfg.seed), host_json);
}

}  // namespace pipebench
