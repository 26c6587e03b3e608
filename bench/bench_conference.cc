// City-scale cascaded-SFU conference sweeps (Chang et al., "Can You See
// Me Now?"): per-client bitrate vs conference size, SFU load vs local
// fanout, relay-link cost vs region count, and gallery vs speaker layout.
//
//   --quick  trims every grid for the CI determinism gate
//   --perf   one fixed conference run; prints deterministic totals on
//            stdout (CONF_PERF ...) and the wall-clock figures on stderr
//            (CONF_PERF_TIMING ...), so byte-comparing stdout across
//            --shards counts is the sharded-engine identity gate while
//            the timing line feeds the perf-floor/regression gates.
//            Shape flags: --participants N --regions R --duration SECS;
//            --json PATH additionally writes a BenchReport (per-shard
//            counters land in its timing line).
//   --shards S  worker threads per simulation (default 1); every run is
//            on the sharded core, one shard per region, so the results do
//            not depend on S
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "bench_common.h"
#include "harness/scenario.h"
#include "vca/profile.h"

namespace {

using namespace vca;
using namespace vca::bench;

ConferenceConfig base_cfg(bool quick, const SweepOptions& opts) {
  ConferenceConfig cfg;
  cfg.seed = 7100;
  cfg.duration = Duration::seconds(quick ? 20 : 40);
  cfg.measure_from = Duration::seconds(quick ? 10 : 20);
  cfg.shards = opts.shards;
  return cfg;
}

// --- panel 1: gallery scaling curves ---------------------------------------

void scale_panel(BenchReport& report, const SweepOptions& opts, bool quick) {
  const std::vector<int> sizes =
      quick ? std::vector<int>{4, 8, 12} : std::vector<int>{4, 8, 16, 25, 49};
  const std::vector<std::string> profiles =
      quick ? std::vector<std::string>{"meet", "webex"}
            : std::vector<std::string>{"meet", "zoom", "webex"};

  std::vector<ConferenceConfig> jobs;
  for (int n : sizes) {
    for (const auto& profile : profiles) {
      ConferenceConfig cfg = base_cfg(quick, opts);
      cfg.profile = profile;
      cfg.participants = n;
      cfg.regions = 2;
      jobs.push_back(cfg);
    }
  }
  auto results = Sweep::run(jobs, run_conference, opts.jobs);

  note("Per-client receive bitrate and SFU load vs conference size "
       "(gallery, 2 regions):");
  TextTable table({"n", "profile", "down Mbps", "per-feed Mbps", "up Mbps",
                   "fwd kpps", "peak fanout"});
  report.begin_section("conf_scale",
                       "Gallery scaling: bitrate and SFU load vs size");
  size_t k = 0;
  for (int n : sizes) {
    for (const auto& profile : profiles) {
      const ConferenceResult& r = results[k++];
      VcaKind kind = vca_profile(profile).kind;
      int tiles = visible_tiles(kind, n, ViewMode::kGallery);
      double per_feed = r.mean_client_down_mbps / std::max(1, tiles);
      double fwd_pps = 0.0;
      int peak_fanout = 0;
      for (const auto& reg : r.regions) {
        fwd_pps += reg.forwarded_pps;
        peak_fanout = std::max(peak_fanout, reg.peak_subscriptions);
      }
      table.add_row({std::to_string(n), profile,
                     fmt(r.mean_client_down_mbps, 2), fmt(per_feed, 3),
                     fmt(r.mean_client_up_mbps, 2), fmt(fwd_pps / 1000.0, 1),
                     std::to_string(peak_fanout)});
      report.add_cell(
          {{"participants", std::to_string(n)}, {"profile", profile}},
          {{"down_mbps", BenchReport::scalar(r.mean_client_down_mbps)},
           {"per_feed_mbps", BenchReport::scalar(per_feed)},
           {"up_mbps", BenchReport::scalar(r.mean_client_up_mbps)},
           {"forwarded_pps", BenchReport::scalar(fwd_pps)},
           {"peak_fanout", BenchReport::scalar(peak_fanout)}});
    }
  }
  table.print(std::cout);
  note("Expect: per-feed bitrate non-increasing in n (tiles shrink); "
       "uplink drops once tiles cross a ladder rung (Meet at n=7); "
       "forwarded pps ~linear in peak local fanout.");
}

// --- panel 2: region count -------------------------------------------------

void regions_panel(BenchReport& report, const SweepOptions& opts, bool quick) {
  const std::vector<int> region_counts =
      quick ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
  const int n = quick ? 12 : 24;

  std::vector<ConferenceConfig> jobs;
  for (int regions : region_counts) {
    ConferenceConfig cfg = base_cfg(quick, opts);
    cfg.profile = "webex";
    cfg.participants = n;
    cfg.regions = regions;
    jobs.push_back(cfg);
  }
  auto results = Sweep::run(jobs, run_conference, opts.jobs);

  note("Cascading cost vs region count (webex, " + std::to_string(n) +
       " participants, gallery):");
  TextTable table({"regions", "down Mbps", "relay-up Mbps (sum)",
                   "relay util %", "fwd kpps", "relay streams"});
  report.begin_section("conf_regions", "Relay cost vs region count");
  size_t k = 0;
  for (int regions : region_counts) {
    const ConferenceResult& r = results[k++];
    double relay_up = 0.0, util = 0.0, fwd_pps = 0.0;
    int relay_streams = 0;
    for (const auto& reg : r.regions) {
      relay_up += reg.relay_up_mbps;
      util = std::max(util, reg.relay_up_utilization);
      fwd_pps += reg.forwarded_pps;
      relay_streams += reg.relay_out_streams;
    }
    table.add_row({std::to_string(regions), fmt(r.mean_client_down_mbps, 2),
                   fmt(relay_up, 2), fmt(util * 100.0, 2),
                   fmt(fwd_pps / 1000.0, 1), std::to_string(relay_streams)});
    report.add_cell(
        {{"regions", std::to_string(regions)}},
        {{"down_mbps", BenchReport::scalar(r.mean_client_down_mbps)},
         {"relay_up_mbps", BenchReport::scalar(relay_up)},
         {"relay_utilization", BenchReport::scalar(util)},
         {"forwarded_pps", BenchReport::scalar(fwd_pps)},
         {"relay_streams", BenchReport::scalar(relay_streams)}});
  }
  table.print(std::cout);
  note("Expect: client bitrate ~independent of region count; relay bytes "
       "grow with regions (each publisher crosses each inter-SFU link "
       "once), never with remote fanout.");
}

// --- panel 3: layout -------------------------------------------------------

void layout_panel(BenchReport& report, const SweepOptions& opts, bool quick) {
  const int n = quick ? 13 : 25;
  std::vector<ConferenceConfig> jobs;
  for (ViewMode mode : {ViewMode::kGallery, ViewMode::kSpeaker}) {
    ConferenceConfig cfg = base_cfg(quick, opts);
    cfg.profile = "webex";
    cfg.participants = n;
    cfg.regions = 2;
    cfg.mode = mode;
    jobs.push_back(cfg);
  }
  auto results = Sweep::run(jobs, run_conference, opts.jobs);

  note("Gallery vs speaker (webex, " + std::to_string(n) +
       " participants, 2 regions; everyone pins client 1):");
  TextTable table({"mode", "down Mbps", "pinned up Mbps", "fwd kpps"});
  report.begin_section("conf_layout", "Gallery vs speaker layout");
  size_t k = 0;
  for (const char* mode : {"gallery", "speaker"}) {
    const ConferenceResult& r = results[k++];
    double fwd_pps = 0.0;
    for (const auto& reg : r.regions) fwd_pps += reg.forwarded_pps;
    table.add_row({mode, fmt(r.mean_client_down_mbps, 2),
                   fmt(r.c1_up_mbps, 2), fmt(fwd_pps / 1000.0, 1)});
    report.add_cell({{"mode", mode}},
                    {{"down_mbps", BenchReport::scalar(r.mean_client_down_mbps)},
                     {"c1_up_mbps", BenchReport::scalar(r.c1_up_mbps)},
                     {"forwarded_pps", BenchReport::scalar(fwd_pps)}});
  }
  table.print(std::cout);
  note("Expect: speaker mode subscribes only the pinned feed plus a "
       "filmstrip, cutting downlink; the pinned publisher's uplink rises "
       "to the large-tile request.");
}

// --- --perf: packets-forwarded/sec wall-clock proxy ------------------------

// Deterministic totals to stdout, wall-clock to stderr. Stdout (and the
// --json file minus its one timing line) must be byte-identical across
// --shards values: that is the sharded-engine identity gate
// (check_shard_scaling.cmake). check_conference_perf.cmake and
// check_bench_regression.cmake read the stderr/JSON timing figures.
int run_perf(const SweepOptions& opts, int participants, int regions,
             int duration_sec) {
  ConferenceConfig cfg;
  cfg.profile = "webex";
  cfg.participants = participants;
  cfg.regions = regions;
  cfg.seed = 7100;
  cfg.duration = Duration::seconds(duration_sec);
  cfg.measure_from = Duration::seconds(duration_sec / 2);
  cfg.shards = opts.shards;
  BenchReport report("bench_conference --perf", opts);
  uint64_t events_before = sim_events_total();
  auto t0 = std::chrono::steady_clock::now();
  ConferenceResult r = run_conference(cfg);
  auto t1 = std::chrono::steady_clock::now();
  double wall = std::chrono::duration<double>(t1 - t0).count();
  uint64_t events = sim_events_total() - events_before;
  if (!r.invariant_violations.empty()) {
    for (const auto& v : r.invariant_violations) std::cerr << v << "\n";
    return 1;
  }
  std::cout << "CONF_PERF participants=" << participants << " regions="
            << regions << " packets_forwarded=" << r.total_forwarded_packets
            << " sim_events=" << events << " active=" << r.active_at_end
            << "\n";
  std::cerr << "CONF_PERF_TIMING wall_sec=" << fmt(wall, 3) << " pps="
            << static_cast<int64_t>(r.total_forwarded_packets / wall)
            << " events_per_sec=" << static_cast<int64_t>(events / wall)
            << " shards=" << opts.shards << "\n";
  report.begin_section("conf_perf", "Fixed-shape perf run totals");
  report.add_cell(
      {{"participants", std::to_string(participants)},
       {"regions", std::to_string(regions)},
       {"profile", cfg.profile}},
      {{"packets_forwarded",
        BenchReport::scalar(static_cast<double>(r.total_forwarded_packets))},
       {"active_at_end", BenchReport::scalar(r.active_at_end)}});
  return report.finish() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false, perf = false;
  int participants = 16, regions = 2, duration_sec = 20;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--perf") == 0) perf = true;
    if (i + 1 < argc && std::strcmp(argv[i], "--participants") == 0)
      participants = std::atoi(argv[i + 1]);
    if (i + 1 < argc && std::strcmp(argv[i], "--regions") == 0)
      regions = std::atoi(argv[i + 1]);
    if (i + 1 < argc && std::strcmp(argv[i], "--duration") == 0)
      duration_sec = std::atoi(argv[i + 1]);
  }
  SweepOptions opts = parse_sweep_args(argc, argv);
  if (perf) return run_perf(opts, participants, regions, duration_sec);
  BenchReport report("bench_conference", opts);

  header("Conference scale", "Cascaded-SFU fleet scaling curves");
  scale_panel(report, opts, quick);

  header("Region count", "Inter-SFU relay cost");
  regions_panel(report, opts, quick);

  header("Layout", "Gallery vs speaker");
  layout_panel(report, opts, quick);

  return report.finish() ? 0 : 1;
}
