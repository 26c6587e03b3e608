#include "harness/scenario.h"

#include <algorithm>

#include "apps/abr_video.h"
#include "apps/bulk_tcp.h"
#include "harness/network.h"
#include "harness/sweep.h"
#include "net/faults.h"
#include "vca/call.h"
#include "vca/conference.h"

namespace vca {

namespace {

// End-of-run bookkeeping every scenario runner shares: enforce the sim
// invariants (propagating any violation count into the process-wide
// counter BenchReport surfaces, so release builds fail loudly too) and
// feed the run's perf counters (note_run_perf). Returns the violation
// count for runners that also report it.
int finish_run(Network& net) {
  int violations = net.enforce_invariants();
  note_invariant_violations(static_cast<uint64_t>(violations));
  note_run_perf(net);
  return violations;
}

constexpr FlowId kIncumbentFlowBase = 1000;
constexpr FlowId kCompetitorFlowBase = 4000;
constexpr FlowId kIperfFlow = 9000;
constexpr FlowId kAbrFlowBase = 9100;

FeedQuality feed_quality(Call& call, SfuServer* sfu, VcaClient* viewer,
                         VcaClient* publisher, Duration duration) {
  FeedQuality q;
  if (viewer->feeds().empty()) return q;
  const auto& feed = *viewer->feeds().front();
  q.median_fps = feed.stats->median_fps();
  q.median_qp = feed.stats->median_qp();
  q.median_width = feed.stats->median_width();
  q.freeze_ratio = feed.stats->freeze_ratio(duration);
  q.fir_upstream =
      sfu->fir_count_for(publisher) + feed.receiver->fir_sent();
  (void)call;
  return q;
}

}  // namespace

int64_t queue_bytes_for(DataRate rate) {
  int64_t bdp_300ms = rate.bits_per_sec() * 3 / 10 / 8;
  return std::clamp<int64_t>(bdp_300ms, 20'000, 1'000'000);
}

// ---------------------------------------------------------------------------

TwoPartyResult run_two_party(const TwoPartyConfig& cfg) {
  Network net;
  auto sfu_ports = net.add_host("sfu", DataRate::gbps(2), DataRate::gbps(2),
                                Duration::millis(8), 4 << 20);
  DataRate shaped = std::min(cfg.c1_up, cfg.c1_down);
  auto c1 = net.add_host("c1", cfg.c1_up, cfg.c1_down,
                         Duration::millis(2) + cfg.c1_extra_latency,
                         queue_bytes_for(shaped));
  auto c2 = net.add_host("c2", DataRate::gbps(1), DataRate::gbps(1),
                         Duration::millis(2), 1 << 20);
  if (cfg.c1_loss > 0.0) {
    c1.up->set_random_loss(cfg.c1_loss);
    c1.down->set_random_loss(cfg.c1_loss);
  }
  if (cfg.c1_jitter > Duration::zero()) {
    c1.up->set_jitter(cfg.c1_jitter);
    c1.down->set_jitter(cfg.c1_jitter);
  }

  Call::Config call_cfg;
  call_cfg.profile = vca_profile(cfg.profile);
  call_cfg.seed = cfg.seed;
  call_cfg.flow_base = kIncumbentFlowBase;
  Call call(&net.sched(), sfu_ports.host, call_cfg);
  VcaClient* cl1 = call.add_client(c1.host);
  VcaClient* cl2 = call.add_client(c2.host);

  FlowCapture* up_cap = net.capture(c1.up, cfg.bucket);
  FlowCapture* down_cap = net.capture(c1.down, cfg.bucket);
  TraceRecorder* up_rec = nullptr;
  TraceRecorder* down_rec = nullptr;
  if (cfg.capture_traces) {
    up_rec = net.record(c1.up, cfg.trace_snaplen);
    down_rec = net.record(c1.down, cfg.trace_snaplen);
  }

  call.start();
  net.sched().run_until(TimePoint::zero() + cfg.duration);
  call.stop();
  net.sched().run_for(Duration::millis(10));  // flush stop handlers

  TwoPartyResult out;
  TimePoint from = TimePoint::zero() + cfg.measure_from;
  TimePoint to = TimePoint::zero() + cfg.duration;
  out.c1_up_mbps = up_cap->mean_rate(from, to).mbps_f();
  out.c1_down_mbps = down_cap->mean_rate(from, to).mbps_f();
  out.c1_up_series = up_cap->rates();
  out.c1_down_series = down_cap->rates();
  out.c1_received = feed_quality(call, call.sfu(), cl1, cl2, cfg.duration);
  out.c2_received = feed_quality(call, call.sfu(), cl2, cl1, cfg.duration);
  if (cfg.capture_traces) {
    out.c1_up_records = up_rec->take_records();
    out.c1_down_records = down_rec->take_records();
    if (!cfg.pcap_path.empty()) {
      write_pcap_file(cfg.pcap_path, out.c1_down_records, cfg.trace_snaplen);
    }
    if (!cl1->feeds().empty()) {
      out.c1_recv_seconds = cl1->feeds().front()->stats->per_second();
    }
  }
  finish_run(net);
  return out;
}

// ---------------------------------------------------------------------------

DisruptionResult run_disruption(const DisruptionConfig& cfg) {
  Network net;
  auto sfu_ports = net.add_host("sfu", DataRate::gbps(2), DataRate::gbps(2),
                                Duration::millis(8), 4 << 20);
  auto c1 = net.add_host("c1", DataRate::gbps(1), DataRate::gbps(1),
                         Duration::millis(2), queue_bytes_for(cfg.drop_to));
  auto c2 = net.add_host("c2", DataRate::gbps(1), DataRate::gbps(1),
                         Duration::millis(2), 1 << 20);

  Call::Config call_cfg;
  call_cfg.profile = vca_profile(cfg.profile);
  call_cfg.seed = cfg.seed;
  call_cfg.flow_base = kIncumbentFlowBase;
  Call call(&net.sched(), sfu_ports.host, call_cfg);
  call.add_client(c1.host);
  call.add_client(c2.host);

  Duration bucket = Duration::millis(500);
  Link* disrupted = cfg.uplink ? c1.up : c1.down;
  FlowCapture* dir_cap = net.capture(disrupted, bucket);
  FlowCapture* c2_up_cap = net.capture(c2.up, bucket);

  TimePoint t0 = TimePoint::zero();
  net.shape_at(disrupted, t0 + cfg.start, cfg.drop_to);
  net.shape_at(disrupted, t0 + cfg.start + cfg.length, DataRate::gbps(1));

  call.start();
  net.sched().run_until(t0 + cfg.total);
  call.stop();

  DisruptionResult out;
  out.disrupted_series = dir_cap->rates();
  out.c2_up_series = c2_up_cap->rates();
  out.ttr = time_to_recovery(out.disrupted_series, t0 + cfg.start,
                             t0 + cfg.start + cfg.length,
                             Duration::seconds(5), /*recovery_fraction=*/0.95);
  finish_run(net);
  return out;
}

// ---------------------------------------------------------------------------

OutageResult run_outage(const OutageConfig& cfg) {
  Network net;
  auto sfu_ports = net.add_host("sfu", DataRate::gbps(2), DataRate::gbps(2),
                                Duration::millis(8), 4 << 20);
  auto c1 = net.add_host("c1", DataRate::gbps(1), DataRate::gbps(1),
                         Duration::millis(2), 256 * 1024);
  auto c2 = net.add_host("c2", DataRate::gbps(1), DataRate::gbps(1),
                         Duration::millis(2), 1 << 20);

  Call::Config call_cfg;
  call_cfg.profile = vca_profile(cfg.profile);
  call_cfg.seed = cfg.seed;
  call_cfg.flow_base = kIncumbentFlowBase;
  Call call(&net.sched(), sfu_ports.host, call_cfg);
  VcaClient* cl1 = call.add_client(c1.host);
  call.add_client(c2.host);

  Duration bucket = Duration::millis(500);
  FlowCapture* up_cap = net.capture(c1.up, bucket);
  FlowCapture* down_cap = net.capture(c1.down, bucket);

  TimePoint t0 = TimePoint::zero();
  FaultPlan plan;
  switch (cfg.target) {
    case OutageTarget::kUplink:
      plan.add_outage(c1.up, t0 + cfg.start, cfg.length);
      break;
    case OutageTarget::kDownlink:
      plan.add_outage(c1.down, t0 + cfg.start, cfg.length);
      break;
    case OutageTarget::kBoth:
      plan.add_outage(c1.up, t0 + cfg.start, cfg.length);
      plan.add_outage(c1.down, t0 + cfg.start, cfg.length);
      break;
    case OutageTarget::kSfu: {
      // Server blackout: its access links go dark and it stops serving,
      // so restart resumes from live state (production SFU failover).
      plan.add_outage(sfu_ports.up, t0 + cfg.start, cfg.length);
      plan.add_outage(sfu_ports.down, t0 + cfg.start, cfg.length);
      SfuServer* sfu = call.sfu();
      plan.at(t0 + cfg.start, "sfu-offline", [sfu] { sfu->set_online(false); });
      plan.at(t0 + cfg.start + cfg.length, "sfu-restart",
              [sfu] { sfu->set_online(true); });
      break;
    }
  }
  plan.schedule(&net.sched());

  call.start();
  net.sched().run_until(t0 + cfg.total);
  call.stop();

  OutageResult out;
  out.c1_up_series = up_cap->rates();
  out.c1_down_series = down_cap->rates();
  const TimeSeries& affected = cfg.target == OutageTarget::kDownlink
                                   ? out.c1_down_series
                                   : out.c1_up_series;
  out.ttr = time_to_recovery(affected, t0 + cfg.start,
                             t0 + cfg.start + cfg.length,
                             Duration::seconds(5), /*recovery_fraction=*/0.95);
  TimePoint onset = t0 + cfg.start;
  TimePoint restored = t0 + cfg.start + cfg.length;
  for (const ResilienceEvent& ev : cl1->resilience_events()) {
    if (!out.detect_delay && ev.kind == ResilienceEventKind::kMediaTimeout &&
        ev.at >= onset) {
      out.detect_delay = ev.at - onset;
    }
    if (!out.reconnect_delay && ev.kind == ResilienceEventKind::kReconnected &&
        ev.at >= restored) {
      out.reconnect_delay = ev.at - restored;
    }
    if (ev.kind == ResilienceEventKind::kDegraded) ++out.degrade_events;
  }
  out.reconnects = cl1->reconnect_count();
  out.invariant_violations = net.check_invariants();
  net.enforce_invariants();
  finish_run(net);
  return out;
}

// ---------------------------------------------------------------------------

CompetitionResult run_competition(const CompetitionConfig& cfg) {
  Network net;
  auto seg = net.add_segment(cfg.link, Duration::millis(2),
                             queue_bytes_for(cfg.link));
  auto c1 = net.add_host_on_segment(seg, "c1");
  auto f1 = net.add_host_on_segment(seg, "f1");

  auto sfu1 = net.add_host("sfu1", DataRate::gbps(2), DataRate::gbps(2),
                           Duration::millis(8), 4 << 20);
  auto c2 = net.add_host("c2", DataRate::gbps(1), DataRate::gbps(1),
                         Duration::millis(2), 1 << 20);

  Call::Config cc1;
  cc1.profile = vca_profile(cfg.incumbent);
  cc1.seed = cfg.seed;
  cc1.flow_base = kIncumbentFlowBase;
  Call incumbent(&net.sched(), sfu1.host, cc1);
  incumbent.add_client(c1.host);
  incumbent.add_client(c2.host);

  // Captures on the shared bottleneck, split by flow ranges.
  FlowCapture* inc_up = net.capture(seg->shared_up, cfg.bucket);
  inc_up->add_flow_range(kIncumbentFlowBase, kCompetitorFlowBase - 1);
  FlowCapture* inc_down = net.capture(seg->shared_down, cfg.bucket);
  inc_down->add_flow_range(kIncumbentFlowBase, kCompetitorFlowBase - 1);
  FlowCapture* comp_up = net.capture(seg->shared_up, cfg.bucket);
  comp_up->add_flow_range(kCompetitorFlowBase, 65000);
  FlowCapture* comp_down = net.capture(seg->shared_down, cfg.bucket);
  comp_down->add_flow_range(kCompetitorFlowBase, 65000);

  // Competitor endpoints (created lazily at competitor_start).
  std::unique_ptr<Call> comp_call;
  std::unique_ptr<BulkTcpApp> iperf_up_app, iperf_down_app;
  std::unique_ptr<AbrVideoApp> abr;

  Network::HostPorts sfu2{}, f2{}, server{};
  if (cfg.competitor == CompetitorKind::kVca) {
    sfu2 = net.add_host("sfu2", DataRate::gbps(2), DataRate::gbps(2),
                        Duration::millis(8), 4 << 20);
    f2 = net.add_host("f2", DataRate::gbps(1), DataRate::gbps(1),
                      Duration::millis(2), 1 << 20);
    Call::Config cc2;
    cc2.profile = vca_profile(cfg.competitor_profile);
    cc2.seed = cfg.seed + 1;
    cc2.flow_base = kCompetitorFlowBase;
    comp_call = std::make_unique<Call>(&net.sched(), sfu2.host, cc2);
    comp_call->add_client(f1.host);
    comp_call->add_client(f2.host);
  } else {
    // iPerf3 server / CDN edge: close by (the paper's 2 ms RTT server).
    server = net.add_host("server", DataRate::gbps(1), DataRate::gbps(1),
                          Duration::millis(1), 1 << 20);
    if (cfg.competitor == CompetitorKind::kIperfUp) {
      iperf_up_app = std::make_unique<BulkTcpApp>(
          &net.sched(), f1.host, server.host,
          BulkTcpApp::Config{.flow = kIperfFlow});
    } else if (cfg.competitor == CompetitorKind::kIperfDown) {
      iperf_down_app = std::make_unique<BulkTcpApp>(
          &net.sched(), server.host, f1.host,
          BulkTcpApp::Config{.flow = kIperfFlow + 1});
    } else {
      AbrVideoApp::Config ac = cfg.competitor == CompetitorKind::kNetflix
                                   ? AbrVideoApp::netflix()
                                   : AbrVideoApp::youtube();
      ac.flow_base = kAbrFlowBase;
      abr = std::make_unique<AbrVideoApp>(&net.sched(), f1.host, server.host,
                                          ac);
    }
  }

  TimePoint t0 = TimePoint::zero();
  incumbent.start();
  net.sched().schedule_at(t0 + cfg.competitor_start, [&] {
    if (comp_call) comp_call->start();
    if (iperf_up_app) iperf_up_app->start();
    if (iperf_down_app) iperf_down_app->start();
    if (abr) abr->start();
  });
  net.sched().schedule_at(t0 + cfg.competitor_start + cfg.competitor_len, [&] {
    if (comp_call) comp_call->stop();
    if (iperf_up_app) iperf_up_app->stop();
    if (iperf_down_app) iperf_down_app->stop();
    if (abr) abr->stop();
  });

  net.sched().run_until(t0 + cfg.total);
  incumbent.stop();

  CompetitionResult out;
  // Competition window: skip the first 15 s of the competitor's life so
  // both sides have converged.
  TimePoint from = t0 + cfg.competitor_start + Duration::seconds(15);
  TimePoint to = t0 + cfg.competitor_start + cfg.competitor_len;
  double cap = cfg.link.mbps_f();
  out.incumbent_up_mbps = inc_up->mean_rate(from, to).mbps_f();
  out.incumbent_down_mbps = inc_down->mean_rate(from, to).mbps_f();
  out.competitor_up_mbps = comp_up->mean_rate(from, to).mbps_f();
  out.competitor_down_mbps = comp_down->mean_rate(from, to).mbps_f();
  out.incumbent_up_share = out.incumbent_up_mbps / cap;
  out.incumbent_down_share = out.incumbent_down_mbps / cap;
  out.competitor_up_share = out.competitor_up_mbps / cap;
  out.competitor_down_share = out.competitor_down_mbps / cap;
  out.incumbent_up_series = inc_up->rates();
  out.incumbent_down_series = inc_down->rates();
  out.competitor_up_series = comp_up->rates();
  out.competitor_down_series = comp_down->rates();
  if (abr) {
    out.competitor_connections = abr->connections_opened();
    out.competitor_max_parallel = abr->max_parallel_seen();
  }
  finish_run(net);
  return out;
}

// ---------------------------------------------------------------------------

MultipartyResult run_multiparty(const MultipartyConfig& cfg) {
  Network net;
  auto sfu_ports = net.add_host("sfu", DataRate::gbps(4), DataRate::gbps(4),
                                Duration::millis(8), 8 << 20);

  Call::Config call_cfg;
  call_cfg.profile = vca_profile(cfg.profile);
  call_cfg.seed = cfg.seed;
  call_cfg.flow_base = kIncumbentFlowBase;
  call_cfg.mode = cfg.mode;
  call_cfg.pinned_client = 0;  // everyone pins C1 (§6.2)
  Call call(&net.sched(), sfu_ports.host, call_cfg);

  std::vector<Network::HostPorts> ports;
  for (int i = 0; i < cfg.participants; ++i) {
    ports.push_back(net.add_host("c" + std::to_string(i + 1),
                                 DataRate::gbps(1), DataRate::gbps(1),
                                 Duration::millis(2), 1 << 20));
    call.add_client(ports.back().host);
  }

  FlowCapture* up_cap = net.capture(ports[0].up);
  FlowCapture* down_cap = net.capture(ports[0].down);

  call.start();
  net.sched().run_until(TimePoint::zero() + cfg.duration);
  call.stop();

  MultipartyResult out;
  TimePoint from = TimePoint::zero() + cfg.measure_from;
  TimePoint to = TimePoint::zero() + cfg.duration;
  out.c1_up_mbps = up_cap->mean_rate(from, to).mbps_f();
  out.c1_down_mbps = down_cap->mean_rate(from, to).mbps_f();
  finish_run(net);
  return out;
}

ConferenceResult run_conference(const ConferenceConfig& cfg) {
  Network net;
  Conference::Config conf_cfg;
  conf_cfg.profile = vca_profile(cfg.profile);
  conf_cfg.mode = cfg.mode;
  conf_cfg.seed = cfg.seed;
  conf_cfg.flow_base = kIncumbentFlowBase;
  Conference conf(&net.sched(), conf_cfg);

  // One region + SFU per shard; clients round-robin across shards so
  // every inter-SFU link carries real fanout.
  std::vector<Network::Region*> regions;
  std::vector<Network::HostPorts> sfu_ports;
  for (int r = 0; r < cfg.regions; ++r) {
    std::string name = "r" + std::to_string(r);
    regions.push_back(
        net.add_region(name, cfg.relay_rate, cfg.relay_prop, 8 << 20));
    sfu_ports.push_back(net.add_host_in_region(
        regions.back(), "sfu-" + name, DataRate::gbps(4), DataRate::gbps(4),
        Duration::millis(1), 8 << 20));
    conf.add_region(sfu_ports.back().host, regions.back()->sched);
  }

  const int stable = cfg.participants - cfg.late_joiners;
  std::vector<Network::HostPorts> ports;
  std::vector<VcaClient*> clients;
  for (int i = 0; i < cfg.participants; ++i) {
    int region = i % cfg.regions;
    ports.push_back(net.add_host_in_region(
        regions[static_cast<size_t>(region)], "c" + std::to_string(i + 1),
        cfg.client_up, cfg.client_down, Duration::millis(2),
        queue_bytes_for(cfg.client_down)));
    TimePoint join_at = TimePoint::zero();
    TimePoint leave_at = TimePoint::infinite();
    if (i >= stable) {
      join_at = TimePoint::zero() + cfg.churn_start +
                cfg.churn_step * (i - stable);
    } else if (i >= stable / 2 &&
               i < stable / 2 + cfg.early_leavers) {
      leave_at = TimePoint::zero() + cfg.churn_start +
                 cfg.churn_step * (i - stable / 2 + 1);
    }
    clients.push_back(
        conf.add_client(ports.back().host, region, join_at, leave_at));
  }

  std::vector<FlowCapture*> up_caps, down_caps;
  for (auto& p : ports) {
    up_caps.push_back(net.capture(p.up));
    down_caps.push_back(net.capture(p.down));
  }
  std::vector<FlowCapture*> relay_up_caps, relay_down_caps;
  for (auto* reg : regions) {
    relay_up_caps.push_back(net.capture(reg->relay_up));
    relay_down_caps.push_back(net.capture(reg->relay_down));
  }
  TraceRecorder* c1_down_rec = nullptr;
  if (cfg.capture_traces) {
    c1_down_rec = net.record(ports[0].down, cfg.trace_snaplen);
  }

  // Region-scoped faults.
  FaultPlan plan;
  TimePoint fault_at = TimePoint::zero() + cfg.fault_start;
  if (cfg.relay_outage_region >= 0 && cfg.relay_outage_region < cfg.regions) {
    Network::Region* reg = regions[static_cast<size_t>(cfg.relay_outage_region)];
    plan.add_outage(reg->relay_up, fault_at, cfg.fault_length);
    plan.add_outage(reg->relay_down, fault_at, cfg.fault_length);
  }
  if (cfg.sfu_blackout_region >= 0 && cfg.sfu_blackout_region < cfg.regions) {
    SfuServer* sfu = conf.sfu(cfg.sfu_blackout_region);
    plan.at(fault_at, "sfu-blackout", [sfu] { sfu->set_online(false); });
    plan.at(fault_at + cfg.fault_length, "sfu-restore",
            [sfu] { sfu->set_online(true); });
  }
  if (plan.size() > 0) plan.schedule(&net.sched());

  // Fanout high-water sampler (1 Hz), per region.
  std::vector<int> peak_subs(static_cast<size_t>(cfg.regions), 0);
  std::function<void()> sample = [&] {
    for (int r = 0; r < cfg.regions; ++r) {
      peak_subs[static_cast<size_t>(r)] =
          std::max(peak_subs[static_cast<size_t>(r)],
                   conf.sfu(r)->subscription_count());
    }
    net.sched().schedule(Duration::seconds(1), [&] { sample(); });
  };
  net.sched().schedule(Duration::seconds(1), [&] { sample(); });

  conf.start();
  ShardRunner::Options ro;
  ro.threads = cfg.shards;
  ShardRunner runner(&net.sched(), net.shard_scheds(), &net.shard_bus(),
                     net.shard_lookahead(), ro);
  runner.set_barrier_hook([&conf] { conf.drain_deferred_keyframes(); });
  runner.run_until(TimePoint::zero() + cfg.duration);
  conf.stop();

  ConferenceResult out;
  TimePoint from = TimePoint::zero() + cfg.measure_from;
  TimePoint to = TimePoint::zero() + cfg.duration;
  out.c1_up_mbps = up_caps[0]->mean_rate(from, to).mbps_f();
  out.c1_down_mbps = down_caps[0]->mean_rate(from, to).mbps_f();

  std::vector<double> region_sum(static_cast<size_t>(cfg.regions), 0.0);
  std::vector<int> region_n(static_cast<size_t>(cfg.regions), 0);
  double down_sum = 0.0, up_sum = 0.0;
  int counted = 0;
  for (int i = 0; i < cfg.participants; ++i) {
    if (!conf.is_active(clients[static_cast<size_t>(i)])) continue;
    double down = down_caps[static_cast<size_t>(i)]->mean_rate(from, to).mbps_f();
    double up = up_caps[static_cast<size_t>(i)]->mean_rate(from, to).mbps_f();
    down_sum += down;
    up_sum += up;
    ++counted;
    region_sum[static_cast<size_t>(i % cfg.regions)] += down;
    region_n[static_cast<size_t>(i % cfg.regions)] += 1;
  }
  out.mean_client_down_mbps = counted > 0 ? down_sum / counted : 0.0;
  out.mean_client_up_mbps = counted > 0 ? up_sum / counted : 0.0;
  for (int r = 0; r < cfg.regions; ++r) {
    out.region_mean_down_mbps.push_back(
        region_n[static_cast<size_t>(r)] > 0
            ? region_sum[static_cast<size_t>(r)] / region_n[static_cast<size_t>(r)]
            : 0.0);
  }

  for (int r = 0; r < cfg.regions; ++r) {
    ConferenceRegionStats rs;
    rs.name = regions[static_cast<size_t>(r)]->name;
    rs.clients = region_n[static_cast<size_t>(r)];
    rs.forwarded_packets = conf.sfu(r)->forwarded_packets();
    rs.forwarded_pps =
        cfg.duration.seconds() > 0
            ? static_cast<double>(rs.forwarded_packets) / cfg.duration.seconds()
            : 0.0;
    rs.peak_subscriptions = peak_subs[static_cast<size_t>(r)];
    rs.relay_out_streams = conf.sfu(r)->relay_out_count();
    rs.relay_up_mbps = relay_up_caps[static_cast<size_t>(r)]->mean_rate(from, to).mbps_f();
    rs.relay_down_mbps =
        relay_down_caps[static_cast<size_t>(r)]->mean_rate(from, to).mbps_f();
    rs.relay_up_utilization =
        rs.relay_up_mbps / std::max(1e-9, cfg.relay_rate.mbps_f());
    out.total_forwarded_packets += rs.forwarded_packets;
    out.regions.push_back(rs);
  }
  out.active_at_end = conf.active_count();
  out.forwards_to_departed = conf.forwards_to_departed();

  // Conference-level invariants feed the process-wide counter here; the
  // link/clock invariants are counted inside finish_run (don't double
  // count them).
  conf.append_invariant_violations(&out.invariant_violations);
  note_invariant_violations(
      static_cast<uint64_t>(out.invariant_violations.size()));
  for (const auto& v : net.check_invariants()) {
    out.invariant_violations.push_back(v);
  }
  if (cfg.capture_traces) {
    out.c1_down_records = c1_down_rec->take_records();
    if (!cfg.pcap_path.empty()) {
      write_pcap_file(cfg.pcap_path, out.c1_down_records, cfg.trace_snaplen);
    }
    if (!clients[0]->feeds().empty()) {
      out.c1_recv_seconds = clients[0]->feeds().front()->stats->per_second();
    }
  }
  finish_run(net);
  return out;
}

}  // namespace vca
