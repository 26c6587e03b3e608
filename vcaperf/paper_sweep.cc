// paper_sweep: the paper-family simulations a researcher runs daily, the
// jobs of the repository's figure sweeps (bench/bench_fig2.cc through
// bench_fig14.cc) through Sweep::run on at most nproc workers: two-party
// static shaping (Figs 2-3), transient disruption (Figs 4-6) and
// competition with VCAs, iPerf3, Netflix and YouTube (Figs 8-14).
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench.h"
#include "core/perf.h"
#include "harness/scenario.h"
#include "harness/sweep.h"

namespace vcaperf {

using namespace vca;

namespace {

enum class Kind { kTwoParty, kDisruption, kCompetition };
const char* const kKindNames[] = {"two_party", "disruption", "competition"};
const char* const kSpanNames[] = {"harness.run_two_party",
                                  "harness.run_disruption",
                                  "harness.run_competition"};

struct Job {
  Kind kind = Kind::kTwoParty;
  TwoPartyConfig two;
  DisruptionConfig dis;
  CompetitionConfig comp;
  double sim_s = 0.0;
};

struct JobResult {
  Totals out;  // digest of the job's result
  bool ok = false;
  int64_t start_ns = 0;
  int64_t host_ns = 0;
};

uint64_t job_seed(uint64_t seed, size_t i) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + i + 1;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return (x ^ (x >> 31)) % 1'000'000 + 1;
}

// One section of a figure sweep in bench/, in its own job order.
struct Section {
  const char* figure;
  std::vector<Job> jobs;
};

Job two_party(const std::string& profile, double cap, bool uplink) {
  Job j;
  j.kind = Kind::kTwoParty;
  j.two.profile = profile;
  (uplink ? j.two.c1_up : j.two.c1_down) = DataRate::mbps_d(cap);
  return j;
}

Job disruption(const std::string& profile, bool uplink,
               DataRate drop = DisruptionConfig{}.drop_to) {
  Job j;
  j.kind = Kind::kDisruption;
  j.dis.profile = profile;
  j.dis.uplink = uplink;
  j.dis.drop_to = drop;
  return j;
}

Job competition(const std::string& incumbent, CompetitorKind kind,
                DataRate link, const std::string& other = "meet") {
  Job j;
  j.kind = Kind::kCompetition;
  j.comp.incumbent = incumbent;
  j.comp.competitor = kind;
  j.comp.competitor_profile = other;
  j.comp.link = link;
  return j;
}

// The job grids of the repository's figure sweeps, constant for constant
// (caps, drops, links, profiles, competitors and repetitions of
// bench/bench_fig2.cc through bench_fig14.cc), at the paper's durations:
// 440 two-party calls, 104 disruptions and 113 competitions, 657 jobs.
std::vector<Section> figure_sections() {
  const std::vector<double> caps = {0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                                    0.9, 1.0, 1.2, 1.5, 2.0};
  const std::vector<std::string> fig23 = {"meet", "teams-chrome"};
  const std::vector<std::string> vcas = {"meet", "teams", "zoom"};
  const std::vector<double> drops = {0.25, 0.5, 0.75, 1.0};
  const DataRate half = DataRate::kbps(500);
  std::vector<Section> out;

  Section f2{"fig2", {}};  // width/QP/FPS vs uplink, then downlink cap
  for (bool up : {true, false}) {
    for (const std::string& prof : fig23) {
      for (double cap : caps) {
        for (int rep = 0; rep < 5; ++rep) {
          f2.jobs.push_back(two_party(prof, cap, up));
        }
      }
    }
  }
  Section f3{"fig3", {}};  // freezes vs downlink cap, FIRs vs uplink cap
  for (bool up : {false, true}) {
    for (double cap : caps) {
      for (const std::string& prof : fig23) {
        for (int rep = 0; rep < 5; ++rep) {
          f3.jobs.push_back(two_party(prof, cap, up));
        }
      }
    }
  }
  Section f4{"fig4", {}};  // uplink drops: time series, then TTR grid
  Section f56{"fig5_6", {}};  // the same downlink, then Fig 6's C2 uplink
  for (const std::string& prof : vcas) f4.jobs.push_back(disruption(prof, true));
  for (const std::string& prof : vcas) {
    f56.jobs.push_back(disruption(prof, false));
  }
  for (double drop : drops) {
    for (const std::string& prof : vcas) {
      for (int rep = 0; rep < 4; ++rep) {
        f4.jobs.push_back(disruption(prof, true, DataRate::mbps_d(drop)));
        f56.jobs.push_back(disruption(prof, false, DataRate::mbps_d(drop)));
      }
    }
  }
  for (const char* prof : {"meet", "teams"}) {
    f56.jobs.push_back(disruption(prof, false));
  }
  // Figs 8 and 10: every VCA pair on 0.5 Mbps, three repetitions each;
  // Fig 9 two same-VCA pairs, Fig 11 Teams vs Zoom on 1 Mbps.
  Section f89{"fig8_9", {}}, f1011{"fig10_11", {}};
  for (const std::string& inc : vcas) {
    for (const std::string& other : vcas) {
      for (int rep = 0; rep < 3; ++rep) {
        f89.jobs.push_back(competition(inc, CompetitorKind::kVca, half, other));
        f1011.jobs.push_back(
            competition(inc, CompetitorKind::kVca, half, other));
      }
    }
  }
  for (const char* prof : {"zoom", "meet"}) {
    f89.jobs.push_back(competition(prof, CompetitorKind::kVca, half, prof));
  }
  f1011.jobs.push_back(competition("teams", CompetitorKind::kVca,
                                   DataRate::mbps(1), "zoom"));
  // Fig 12: iPerf3 up and down against each VCA on 2 and 0.5 Mbps;
  // Fig 13 Zoom vs iPerf3 up on 0.5 Mbps.
  Section f1213{"fig12_13", {}};
  for (DataRate link : {DataRate::mbps(2), half}) {
    for (const std::string& inc : vcas) {
      for (int rep = 0; rep < 3; ++rep) {
        f1213.jobs.push_back(competition(inc, CompetitorKind::kIperfUp, link));
        f1213.jobs.push_back(
            competition(inc, CompetitorKind::kIperfDown, link));
      }
    }
  }
  f1213.jobs.push_back(competition("zoom", CompetitorKind::kIperfUp, half));
  // Fig 14: Netflix and YouTube against each VCA on 0.5 Mbps, then the
  // Zoom vs Netflix time series.
  Section f14{"fig14", {}};
  for (const std::string& inc : vcas) {
    for (CompetitorKind kind :
         {CompetitorKind::kNetflix, CompetitorKind::kYoutube}) {
      for (int rep = 0; rep < 3; ++rep) {
        f14.jobs.push_back(competition(inc, kind, half));
      }
    }
  }
  f14.jobs.push_back(competition("zoom", CompetitorKind::kNetflix, half));

  for (Section* sec : {&f2, &f3, &f4, &f56, &f89, &f1011, &f1213, &f14}) {
    out.push_back(std::move(*sec));
  }
  return out;
}

// A run sweeps every k-th job of each figure section, k = kFullSeconds /
// --seconds (every job at 20, every second one at 10), so each figure
// keeps its share of the jobs. All 657 jobs take about 20 s on four
// 2.1 GHz Xeon cores. Each job gets its own seed from --seed. Quick mode
// keeps the first job of each section, shortened.
constexpr int kFullSeconds = 20;

std::vector<Job> make_jobs(const Params& p) {
  const size_t stride =
      static_cast<size_t>(std::max(1, kFullSeconds / std::max(1, p.seconds)));
  std::vector<Job> jobs;
  for (Section& sec : figure_sections()) {
    for (size_t i = 0; i < sec.jobs.size(); i += p.quick ? sec.jobs.size()
                                                         : stride) {
      Job j = sec.jobs[i];
      if (p.quick) {
        j.two.duration = Duration::seconds(20);
        j.two.measure_from = Duration::seconds(5);
        j.dis.start = Duration::seconds(10);
        j.dis.length = Duration::seconds(5);
        j.dis.total = Duration::seconds(30);
        j.comp.competitor_start = Duration::seconds(5);
        j.comp.competitor_len = Duration::seconds(25);
        j.comp.total = Duration::seconds(35);
      }
      jobs.push_back(j);
    }
  }
  for (size_t i = 0; i < jobs.size(); ++i) {
    Job& j = jobs[i];
    j.two.seed = j.dis.seed = j.comp.seed = job_seed(p.seed, i);
    j.sim_s = j.kind == Kind::kTwoParty     ? j.two.duration.seconds()
              : j.kind == Kind::kDisruption ? j.dis.total.seconds()
                                            : j.comp.total.seconds();
  }
  return jobs;
}

bool finite_nonneg(double v) { return std::isfinite(v) && v >= 0.0; }

// Runs one job and folds its result into a digest; `ok` is the job's own
// output check.
JobResult run_job(const Job& j) {
  JobResult r;
  Totals& d = r.out;
  switch (j.kind) {
    case Kind::kTwoParty: {
      TwoPartyResult res = run_two_party(j.two);
      for (double v : {res.c1_up_mbps, res.c1_down_mbps,
                       res.c1_received.median_fps, res.c2_received.median_fps,
                       res.c1_received.freeze_ratio,
                       res.c2_received.freeze_ratio}) {
        d.fold(v);
      }
      double cap = std::min(j.two.c1_up.mbps_f(), j.two.c1_down.mbps_f());
      r.ok = res.c1_up_mbps > 0.0 && res.c1_down_mbps > 0.0 &&
             std::max(res.c1_up_mbps, res.c1_down_mbps) <= 1000.0 &&
             std::min(res.c1_up_mbps, res.c1_down_mbps) <= cap * 1.05 &&
             finite_nonneg(res.c1_received.freeze_ratio);
      break;
    }
    case Kind::kDisruption: {
      DisruptionResult res = run_disruption(j.dis);
      d.fold(res.ttr.nominal_mbps);
      d.fold(res.ttr.ttr ? res.ttr.ttr->ns() : -1);
      for (const auto& s : res.disrupted_series.samples()) d.fold(s.value);
      r.ok = res.ttr.nominal_mbps > 0.0 && !res.disrupted_series.empty();
      break;
    }
    case Kind::kCompetition: {
      CompetitionResult res = run_competition(j.comp);
      double shares[] = {res.incumbent_up_share, res.incumbent_down_share,
                         res.competitor_up_share, res.competitor_down_share};
      for (double v : {res.incumbent_up_mbps, res.incumbent_down_mbps,
                       res.competitor_up_mbps, res.competitor_down_mbps}) {
        d.fold(v);
      }
      for (double v : shares) d.fold(v);
      d.fold(res.competitor_connections);
      r.ok = res.incumbent_up_mbps > 0.0;
      for (double v : shares) r.ok = r.ok && finite_nonneg(v) && v <= 1.05;
      break;
    }
  }
  return r;
}

}  // namespace

Outcome run_paper_sweep(const Params& p, Tracer* tracer) {
  Outcome o;
  const std::vector<Job> jobs = make_jobs(p);
  const int workers = std::max(1, std::min(p.threads, 4));

  // Set-up: a job that simulates nothing (build, then tear down, each
  // scenario family once), repeated before and after the sweep so that
  // the repetitions meet the host at two moments; the median is reported.
  std::vector<double> setup_s;
  auto time_setup = [&](int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      int64_t t0 = now_ns();
      TwoPartyConfig two;
      two.duration = two.measure_from = Duration::zero();
      run_two_party(two);
      DisruptionConfig dis;
      dis.start = dis.length = dis.total = Duration::zero();
      run_disruption(dis);
      CompetitionConfig comp;
      comp.competitor_start = comp.competitor_len = comp.total =
          Duration::zero();
      run_competition(comp);
      setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
  };
  const int setup_reps = p.quick ? 2 : 16;
  time_setup(setup_reps);

  const uint64_t events0 = sim_events_total();
  const uint64_t link0 = perf::link_packets_total();
  const uint64_t viol0 = invariant_violations_total();
  int64_t sweep_t0 = 0;
  std::vector<JobResult> results;
  {
    Tracer::Scope sweep(tracer, "harness.sweep");
    const int64_t parent = sweep.id();
    sweep_t0 = now_ns();
    results = Sweep::run(
        jobs,
        [&](const Job& j) {
          int64_t t0 = now_ns();
          JobResult r;
          {
            Tracer::Scope s(tracer, kSpanNames[static_cast<int>(j.kind)],
                            parent);
            r = run_job(j);
          }
          r.start_ns = t0;
          r.host_ns = now_ns() - t0;
          return r;
        },
        workers);
  }
  const double wall_s = static_cast<double>(now_ns() - sweep_t0) * 1e-9;
  const int64_t events = static_cast<int64_t>(sim_events_total() - events0);
  const int64_t link_pkts =
      static_cast<int64_t>(perf::link_packets_total() - link0);
  const int64_t violations =
      static_cast<int64_t>(invariant_violations_total() - viol0);
  o.e2e_ms = wall_s * 1e3;
  time_setup(setup_reps);

  std::vector<double> job_s, ms_per_sim_s, wait_ms;
  double sim_total = 0.0;
  int64_t bad = 0;
  double kind_ms[3] = {0, 0, 0};
  int kind_n[3] = {0, 0, 0};
  for (size_t i = 0; i < jobs.size(); ++i) {
    const JobResult& r = results[i];
    double s = static_cast<double>(r.host_ns) * 1e-9;
    job_s.push_back(s);
    ms_per_sim_s.push_back(s * 1e3 / jobs[i].sim_s);
    wait_ms.push_back(static_cast<double>(r.start_ns - sweep_t0) * 1e-6);
    sim_total += jobs[i].sim_s;
    o.totals.fold(r.out.digest);
    int k = static_cast<int>(jobs[i].kind);
    kind_ms[k] += s * 1e3;
    kind_n[k] += 1;
    if (!r.ok) {
      ++bad;
      check(&o, false, std::string("paper_sweep: job ") + std::to_string(i) +
                           " (" + kKindNames[k] + ") failed its output check");
    }
  }
  check(&o, violations == 0,
        "paper_sweep: " + std::to_string(violations) + " invariant violations");
  bad = std::min<int64_t>(static_cast<int64_t>(jobs.size()),
                          bad + violations);

  // Determinism: one job of each kind again, serially, must reproduce its
  // digest exactly.
  int64_t rechecked = 0;
  for (Kind k : {Kind::kTwoParty, Kind::kDisruption, Kind::kCompetition}) {
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].kind != k) continue;
      ++rechecked;
      bool same = run_job(jobs[i]).out.digest == results[i].out.digest;
      check(&o, same,
            "paper_sweep: job " + std::to_string(i) + " is not deterministic");
      bad += same ? 0 : 1;
      break;
    }
  }
  o.attempted = static_cast<int64_t>(jobs.size()) + rechecked;
  o.failed = bad;
  o.totals.set("jobs", static_cast<int64_t>(jobs.size()));
  o.totals.set("events", events);
  o.totals.set("link_pkts", link_pkts);
  o.totals.set("invariant_violations", violations);

  const int64_t n = static_cast<int64_t>(jobs.size());
  auto& M = o.metrics;
  M.push_back({"setup_s", median(setup_s), "s",
               static_cast<int64_t>(setup_s.size())});
  M.push_back({"sim_rate", sim_total / wall_s, "sim_s/s", n});
  M.push_back({"pkt_rate", static_cast<double>(link_pkts) / wall_s, "pkt/s",
               n});
  M.push_back({"job_p50_s", percentile(job_s, 0.5), "s", n});
  M.push_back({"job_p90_s", percentile(job_s, 0.9), "s", n});
  M.push_back({"window_p50_ms", percentile(ms_per_sim_s, 0.5), "ms", n});
  M.push_back({"window_p95_ms", percentile(ms_per_sim_s, 0.95), "ms", n});

  auto& L = o.layer;
  double mean_wait = 0.0;
  for (double w : wait_ms) mean_wait += w / static_cast<double>(n);
  L.push_back({"harness.sweep_wait_ms", mean_wait, "ms", n});
  for (int k = 0; k < 3; ++k) {
    L.push_back({std::string("harness.job_ms.") + kKindNames[k],
                 kind_n[k] > 0 ? kind_ms[k] / kind_n[k] : 0.0, "ms",
                 kind_n[k]});
  }
  L.push_back({"core.events", static_cast<double>(events), "count"});
  L.push_back({"core.events_per_sim_s",
               static_cast<double>(events) / sim_total, "1/s"});
  L.push_back({"core.peak_pending",
               static_cast<double>(perf::peak_heap_events()), "count"});
  L.push_back({"net.link_pkts", static_cast<double>(link_pkts), "count"});
  return o;
}

}  // namespace vcaperf
