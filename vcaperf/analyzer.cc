// The two streaming-analyzer workloads. They use the flow table in
// opposite ways:
//  * analyzer_churn: SynthChurn (100k mice, 10k mid, 200 hot flows per
//    30 s) over 200 input seconds through on_parsed, each input second
//    generated untimed and then fed as one timed window. Promotion, LRU
//    and idle eviction and the per-window key sort carry the work; no
//    pcap or parse layer.
//  * capture_replay: pcaps the simulator's own tap captures in set-up,
//    replayed through replay_pcap (the `vcabench_cli analyze --stream`
//    path). Few long-lived flows with real header bytes: the pcap reader,
//    parse_frame, frame segmentation and the estimators carry the work.
#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/parse.h"
#include "bench.h"
#include "harness/scenario.h"
#include "streaming/analyzer.h"
#include "streaming/synth.h"

namespace vcaperf {

using namespace vca;

namespace {

// Short calls are timed in batches of this many, never one by one.
constexpr size_t kBatch = 4096;

// Folds every report the analyzer emits into a digest, and keeps the
// keys of final reports (distinct keys give the re-promotion count).
struct Sinks {
  Totals out;
  std::vector<StreamKey> report_keys;
  int64_t report_packets = 0;

  void install(StreamingAnalyzer* an) {
    an->set_window_sink([this](const WindowReport& w) {
      out.fold(w.window_start_ns);
      out.fold(w.key.ssrc);
      out.fold(w.packets);
      out.fold(w.ip_bytes);
      out.fold(w.frames);
      out.fold(w.freeze_events);
    });
    an->set_report_sink([this](const StreamReport& r) {
      report_keys.push_back(r.key);
      report_packets += r.packets;
      out.fold(r.key.src_ip);
      out.fold(r.key.ssrc);
      out.fold(r.packets);
      out.fold(r.ip_bytes);
      out.fold(r.frames);
      out.fold(r.median_fps);
      out.fold(r.est_width);
      out.fold(r.freeze_events);
      out.fold(r.qoe);
    });
  }
};

int64_t distinct_keys(std::vector<StreamKey> keys) {
  std::sort(keys.begin(), keys.end());
  return std::unique(keys.begin(), keys.end()) - keys.begin();
}

// Flow-table counters summed over every analyzer a workload ran.
struct TableSums {
  int64_t packets = 0, windows = 0, reports = 0, promoted = 0, lru = 0,
          idle = 0, sketch_only = 0, peak_live = 0, distinct = 0;

  // Adds one finished analyzer and checks its packet conservation: every
  // routed packet is either sketch-only or in exactly one final report.
  void add(const StreamingAnalyzer& an, const Sinks& s, Outcome* o,
           const std::string& what) {
    const FlowTable::Stats& ft = an.table().stats();
    packets += an.stats().packets;
    windows += an.stats().windows_emitted;
    reports += an.stats().final_reports;
    promoted += ft.promoted;
    lru += ft.evicted_lru;
    idle += ft.evicted_idle;
    sketch_only += ft.sketch_only_packets;
    peak_live = std::max<int64_t>(peak_live,
                                  static_cast<int64_t>(ft.peak_live_flows));
    distinct += distinct_keys(s.report_keys);
    check(o, s.report_packets + ft.sketch_only_packets == an.stats().packets,
          what + ": packets in final reports + sketch-only != packets routed");
    check(o, an.stats().final_reports == ft.promoted,
          what + ": final reports != promotions");
  }

  void to_totals(Totals* t) const {
    t->set("packets", packets);
    t->set("windows", windows);
    t->set("final_reports", reports);
    t->set("promoted", promoted);
    t->set("evicted_lru", lru);
    t->set("evicted_idle", idle);
    t->set("sketch_only_pkts", sketch_only);
    t->set("peak_live_flows", peak_live);
  }

  void to_layer(std::vector<Metric>* L) const {
    auto count = [&](const char* name, int64_t v) {
      L->push_back({name, static_cast<double>(v), "count"});
    };
    count("streaming.windows", windows);
    count("streaming.promoted", promoted);
    count("streaming.evicted_lru", lru);
    count("streaming.evicted_idle", idle);
    count("streaming.sketch_only_pkts", sketch_only);
    count("streaming.peak_live_flows", peak_live);
    L->push_back({"streaming.repromote_ratio",
                  promoted > 0 ? static_cast<double>(promoted - distinct) /
                                     static_cast<double>(promoted)
                               : 0.0,
                  "ratio", promoted});
  }
};

double ns_per(double ms, int64_t n) {
  return n > 0 ? ms * 1e6 / static_cast<double>(n) : 0.0;
}

// Set-up: constructing the analyzer and installing its sinks, repeated
// back to back at process start (before any input exists); the median is
// reported. Samples taken between windows or replays depend on the
// allocator state the run leaves behind; their median moved by up to 2.3x
// between two sets of runs on the same host.
Metric setup_metric(const StreamingConfig& cfg, bool quick) {
  std::vector<double> s;
  for (int i = 0; i < (quick ? 3 : 201); ++i) {
    int64_t t0 = now_ns();
    StreamingAnalyzer an(cfg);
    Sinks sinks;
    sinks.install(&an);
    s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return {"setup_s", median(s), "s", static_cast<int64_t>(s.size())};
}

// One pass over the churn input: each input second generated untimed and
// then fed as one timed window, including the roll of the window before.
// Fills o's totals, checks, layer counters and generator time; the raw
// timings go to o->metrics: "window_ms" for each window in order and
// "fixed_ms" for the analyzer's construction and finish.
void churn_pass(const SynthChurnConfig& scfg, const StreamingConfig& cfg,
                bool quick, Tracer* tracer, Outcome* o) {
  int64_t g0 = now_ns();
  SynthChurn gen(scfg);
  ParsedPacket next{};
  bool more = gen.next(&next);
  int64_t gen_ns = now_ns() - g0;

  int64_t t0 = now_ns();
  StreamingAnalyzer an(cfg);
  Sinks sinks;
  sinks.install(&an);
  int64_t fixed_ns = now_ns() - t0;

  int64_t generated = 0;
  std::vector<ParsedPacket> buf;
  for (int64_t end_ns = 1'000'000'000; more; end_ns += 1'000'000'000) {
    g0 = now_ns();
    buf.clear();
    while (more && next.ts_ns < end_ns) {
      buf.push_back(next);
      more = gen.next(&next);
    }
    gen_ns += now_ns() - g0;
    generated += static_cast<int64_t>(buf.size());
    if (buf.empty()) continue;

    t0 = now_ns();
    {
      Tracer::Scope w(tracer, "streaming.window");
      for (size_t i = 0; i < buf.size(); i += kBatch) {
        Tracer::Scope b(tracer, "streaming.on_parsed");
        size_t stop = std::min(buf.size(), i + kBatch);
        for (size_t k = i; k < stop; ++k) an.on_parsed(buf[k]);
      }
    }
    o->metrics.push_back(
        {"window_ms", static_cast<double>(now_ns() - t0) * 1e-6, "ms"});
  }
  t0 = now_ns();
  {
    Tracer::Scope f(tracer, "streaming.finish");
    an.finish();
  }
  fixed_ns += now_ns() - t0;
  o->metrics.push_back(
      {"fixed_ms", static_cast<double>(fixed_ns) * 1e-6, "ms"});
  o->generator_ms = static_cast<double>(gen_ns) * 1e-6;

  TableSums sums;
  sums.add(an, sinks, o, "analyzer_churn");
  check(o, generated == sums.packets,
        "analyzer_churn: packets routed != packets generated");
  // The workload exists to load LRU eviction and re-promotion; quick mode
  // is too small to fill the table.
  check(o, quick || sums.lru > 0,
        "analyzer_churn: the flow table never evicted by LRU");
  sums.to_totals(&o->totals);
  o->totals.fold(sinks.out.digest);
  sums.to_layer(&o->layer);
  o->attempted = generated;
  o->failed = o->failures.empty() ? 0 : generated;
}

}  // namespace

Outcome run_analyzer_churn(const Params& p, Tracer* tracer) {
  Outcome o;
  SynthChurnConfig scfg;
  scfg.seed = p.seed;
  // SynthChurn's populations are sized for its default 30 s; lengthened
  // to 200 s they are scaled with it, so that flows arrive as densely and
  // the 32 MB table fills and evicts by LRU as it does at 30 s.
  const SynthChurnConfig defaults;
  scfg.duration_sec = 200.0;
  const double stretch = scfg.duration_sec / defaults.duration_sec;
  scfg.mice_flows = static_cast<int>(defaults.mice_flows * stretch);
  scfg.mid_flows = static_cast<int>(defaults.mid_flows * stretch);
  if (p.quick) {
    scfg.mice_flows = 10'000;
    scfg.mid_flows = 1'000;
    scfg.hot_flows = 20;
    scfg.duration_sec = 20.0;
  }
  const StreamingConfig cfg;  // the default 32 MB cap
  // One pass is about 2.5 to 4 s of analyzer time on a 2.1 GHz Xeon, and
  // its input about 1.6 s more of untimed generation.
  const int passes = p.quick ? 1 : std::max(1, p.seconds / 3);

  const Metric setup = setup_metric(cfg, p.quick);

  // Every pass, each in a process of its own, feeds the same input (and
  // must give the same totals), so window i of one pass is the same work
  // as window i of every other; each window counts with its mean time
  // over the passes (see "Steadiness" in README.md).
  const std::vector<Outcome> runs = run_repeats(
      passes, "analyzer_churn",
      [&](bool first, Outcome* out) {
        churn_pass(scfg, cfg, p.quick, first ? tracer : nullptr, out);
      },
      &o);

  std::vector<double> pass_s;
  for (const Outcome& r : runs) {
    double ms = 0.0;
    for (double w : raw_values(r, "window_ms")) ms += w;
    for (double f : raw_values(r, "fixed_ms")) ms += f;
    pass_s.push_back(ms * 1e-3);
  }
  std::vector<double> window_ms;
  for (const std::vector<double>& w : by_index(runs, "window_ms")) {
    window_ms.push_back(mean(w));
  }
  const double mean_pass_s = mean(pass_s);
  const int64_t per_pass = o.totals.values["packets"];
  o.e2e_ms = pass_s.front() * 1e3;

  const int64_t n = static_cast<int64_t>(runs.size());
  const int64_t nw = static_cast<int64_t>(window_ms.size());
  auto& M = o.metrics;
  M.clear();  // the first pass's raw samples
  M.push_back(setup);
  M.push_back({"sim_rate", scfg.duration_sec / mean_pass_s, "sim_s/s", n});
  M.push_back({"pkt_rate", static_cast<double>(per_pass) / mean_pass_s,
               "pkt/s", n});
  M.push_back({"job_p50_s", percentile(pass_s, 0.5), "s", n});
  M.push_back({"job_p90_s", percentile(pass_s, 0.9), "s", n});
  M.push_back({"window_p50_ms", percentile(window_ms, 0.5), "ms", nw});
  M.push_back({"window_p95_ms", percentile(window_ms, 0.95), "ms", nw});

  if (tracer != nullptr) {
    o.layer.push_back({"streaming.feed_ns_per_pkt",
                       ns_per(tracer->total_ms("streaming.on_parsed"),
                              per_pass),
                       "ns", per_pass});
    o.layer.push_back({"streaming.finish_ms",
                       tracer->total_ms("streaming.finish"), "ms", 1});
  }
  return o;
}

namespace {

struct Capture {
  std::string path;
  int64_t records = 0;
  double span_s = 0.0;  // first to last record
};

// The replay captures: a two-party call per profile and a gallery
// conference's observed downlink, each tapped by the simulator itself.
std::vector<Capture> make_captures(const Params& p, const std::string& dir,
                                   Outcome* o) {
  std::vector<Capture> caps;
  auto add = [&](const std::string& path,
                 const std::vector<PacketRecord>& recs) {
    Capture c;
    c.path = path;
    c.records = static_cast<int64_t>(recs.size());
    if (!recs.empty()) {
      c.span_s =
          static_cast<double>(recs.back().ts_ns - recs.front().ts_ns) * 1e-9;
    }
    check(o, c.records > 0 && c.span_s > 0.0, "capture_replay: empty " + path);
    caps.push_back(c);
  };
  std::vector<std::string> profiles = {"meet", "teams", "zoom", "webex"};
  if (p.quick) profiles.resize(2);
  uint64_t seed = p.seed;
  for (const std::string& prof : profiles) {
    TwoPartyConfig cfg;
    cfg.profile = prof;
    cfg.seed = seed++;
    cfg.duration = Duration::seconds(p.quick ? 15 : 60);
    cfg.measure_from = Duration::seconds(5);
    cfg.capture_traces = true;
    cfg.pcap_path = dir + "/two_party_" + prof + ".pcap";
    add(cfg.pcap_path, run_two_party(cfg).c1_down_records);
  }
  ConferenceConfig cc;
  cc.profile = "zoom";
  cc.participants = p.quick ? 4 : 9;
  cc.regions = 2;
  cc.seed = seed;
  cc.duration = Duration::seconds(p.quick ? 10 : 30);
  cc.measure_from = Duration::seconds(5);
  cc.shards = 1;
  cc.capture_traces = true;
  cc.pcap_path = dir + "/gallery_downlink.pcap";
  add(cc.pcap_path, run_conference(cc).c1_down_records);
  return caps;
}

// make_captures in a forked child, so that the peak resident set of this
// process is the replay's and not that of the simulations that captured.
std::vector<Capture> make_captures_in_child(const Params& p,
                                            const std::string& dir,
                                            Outcome* o) {
  std::optional<std::string> msg = run_in_child([&] {
    Outcome c;
    std::ostringstream os;
    os.precision(17);
    for (const Capture& cap : make_captures(p, dir, &c)) {
      os << "capture " << cap.records << " " << cap.span_s << " " << cap.path
         << "\n";
    }
    for (const std::string& f : c.failures) os << "failure " << f << "\n";
    return os.str();
  });
  std::vector<Capture> caps;
  check(o, msg.has_value(), "capture_replay: capturing child failed");
  std::istringstream is(msg.value_or(""));
  for (std::string key; is >> key;) {
    std::string rest;
    if (key == "capture") {
      Capture c;
      is >> c.records >> c.span_s;
      std::getline(is, rest);
      c.path = rest.substr(rest.empty() ? 0 : 1);
      caps.push_back(c);
    } else {
      std::getline(is, rest);
      o->failures.push_back(rest.substr(rest.empty() ? 0 : 1));
    }
  }
  check(o, !caps.empty(), "capture_replay: no captures");
  return caps;
}

}  // namespace

Outcome run_capture_replay(const Params& p, Tracer* tracer,
                           const std::string& work_dir) {
  Outcome o;
  // The `analyze --stream` defaults: admit every flow of a curated capture.
  StreamingConfig cfg;
  cfg.promote_packets = 1;

  o.metrics.push_back(setup_metric(cfg, p.quick));

  int64_t g0 = now_ns();
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  const std::vector<Capture> caps = make_captures_in_child(p, work_dir, &o);
  o.generator_ms = static_cast<double>(now_ns() - g0) * 1e-6;
  if (caps.empty()) {
    o.attempted = o.failed = 1;
    return o;
  }

  // A round replays every capture once, about 40 ms on a 2.1 GHz Xeon.
  // Every round does the same work; the metrics take each capture's best
  // replay over the rounds (see "Steadiness" in README.md).
  const int rounds = p.quick ? 2 : std::max(1, p.seconds * 24);
  std::vector<double> best_s(caps.size(), 0.0);
  double busy_s = 0.0;
  int64_t replays = 0;
  std::vector<uint64_t> digests(caps.size(), 0);
  TableSums sums;
  int64_t records = 0, parse_failures = 0;
  std::vector<PacketRecord> recs(kBatch);
  std::vector<ParsedPacket> parsed;
  parsed.reserve(kBatch);
  for (int round = 0; round < rounds; ++round) {
    for (size_t c = 0; c < caps.size(); ++c) {
      const Capture& cap = caps[c];
      int64_t t0 = now_ns();
      StreamingAnalyzer an(cfg);
      Sinks sinks;
      sinks.install(&an);
      ++replays;
      bool opened = false;
      int64_t read = 0, failed_parse = 0;
      if (tracer == nullptr) {
        opened = an.replay_pcap(cap.path);
        read = an.stats().records_in;
        failed_parse = an.stats().parse_failures;
      } else {
        // replay_pcap's loop, unrolled so each layer gets its own spans.
        std::optional<PcapFileReader> reader;
        {
          Tracer::Scope open(tracer, "trace.open");
          reader.emplace(cap.path);
        }
        opened = reader->ok();
        for (bool more = opened; more;) {
          size_t n = 0;
          {
            Tracer::Scope span(tracer, "trace.next");
            while (n < kBatch && (more = reader->next(&recs[n]))) ++n;
          }
          parsed.clear();
          {
            Tracer::Scope span(tracer, "analysis.parse_frame");
            for (size_t i = 0; i < n; ++i) {
              std::optional<ParsedPacket> pp = parse_frame(recs[i]);
              if (pp) {
                parsed.push_back(*pp);
              } else {
                ++failed_parse;
              }
            }
          }
          {
            Tracer::Scope span(tracer, "streaming.on_parsed");
            for (const ParsedPacket& pp : parsed) an.on_parsed(pp);
          }
          read += static_cast<int64_t>(n);
        }
      }
      {
        Tracer::Scope span(tracer, "streaming.finish");
        an.finish();
      }
      double s = static_cast<double>(now_ns() - t0) * 1e-9;
      busy_s += s;
      best_s[c] = round == 0 ? s : std::min(best_s[c], s);
      records += read;
      parse_failures += failed_parse;

      std::string what = "capture_replay " + cap.path;
      size_t before = o.failures.size();
      check(&o, opened, what + ": cannot open");
      check(&o, read == cap.records, what + ": records read != captured");
      check(&o, failed_parse == 0, what + ": unparsable records");
      sums.add(an, sinks, &o, what);
      if (round == 0) digests[c] = sinks.out.digest;
      check(&o, sinks.out.digest == digests[c],
            what + ": reports differ between replays");
      if (o.failures.size() > before) o.failed += std::max(read, cap.records);
      if (round == 0) o.totals.fold(sinks.out.digest);
    }
  }
  o.attempted = std::max<int64_t>(1, records);
  o.failed = std::min(o.failed, o.attempted);
  if (o.failed == 0 && !o.failures.empty()) o.failed = o.attempted;
  sums.to_totals(&o.totals);
  o.totals.set("records", records);
  o.totals.set("parse_failures", parse_failures);
  std::filesystem::remove_all(work_dir, ec);  // inputs, regenerated per run

  o.e2e_ms = busy_s * 1e3;
  // A job is one capture's replay; a window is one of its input seconds.
  double round_s = 0.0, input_s = 0.0;
  std::vector<double> ms_per_input_s;
  for (size_t c = 0; c < caps.size(); ++c) {
    round_s += best_s[c];
    input_s += caps[c].span_s;
    ms_per_input_s.push_back(best_s[c] * 1e3 / caps[c].span_s);
  }
  const int64_t n = rounds;
  auto& M = o.metrics;
  M.push_back({"sim_rate", input_s / round_s, "sim_s/s", n});
  M.push_back({"pkt_rate",
               static_cast<double>(sums.packets) / rounds / round_s, "pkt/s",
               n});
  M.push_back({"job_p50_s", percentile(best_s, 0.5), "s", n});
  M.push_back({"job_p90_s", percentile(best_s, 0.9), "s", n});
  M.push_back({"window_p50_ms", percentile(ms_per_input_s, 0.5), "ms", n});
  M.push_back({"window_p95_ms", percentile(ms_per_input_s, 0.95), "ms", n});

  sums.to_layer(&o.layer);
  o.layer.push_back({"analysis.parse_failures",
                     static_cast<double>(parse_failures), "count"});
  if (tracer != nullptr) {
    o.layer.push_back({"trace.read_ns_per_pkt",
                       ns_per(tracer->total_ms("trace.next"), records), "ns",
                       records});
    o.layer.push_back(
        {"analysis.parse_ns_per_pkt",
         ns_per(tracer->total_ms("analysis.parse_frame"), records), "ns",
         records});
    o.layer.push_back({"streaming.feed_ns_per_pkt",
                       ns_per(tracer->total_ms("streaming.on_parsed"),
                              sums.packets),
                       "ns", sums.packets});
    o.layer.push_back({"streaming.finish_ms",
                       tracer->total_ms("streaming.finish"), "ms", replays});
  }
  return o;
}

}  // namespace vcaperf
