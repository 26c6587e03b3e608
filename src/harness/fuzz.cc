#include "harness/fuzz.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>

#include "apps/abr_video.h"
#include "apps/bulk_tcp.h"
#include "core/rng.h"
#include "harness/network.h"
#include "harness/sweep.h"
#include "net/faults.h"
#include "net/shard.h"
#include "vca/call.h"
#include "vca/conference.h"

namespace vca {

namespace {

constexpr FlowId kCallFlowBase = 1000;
constexpr FlowId kCompFlowBase = 9000;
// Quiet tail appended after the last fault window so every scenario ends
// on a healthy network: reconnect/restore oracles need a settled epoch.
constexpr int64_t kTailMs = 30000;
// In-flight drain after outage onset: a packet mid-serialization at the
// old rate still delivers, plus propagation (<= 30 ms in the generator).
constexpr int64_t kOutageGraceMs = 300;
// Connectivity restore -> reconnect bound: keepalive backoff tops out at
// 4 s (ResilienceSpec), plus congested-RTT slack.
constexpr int64_t kTtrBoundMs = 15000;

TimePoint at_ms(int64_t v) { return TimePoint::zero() + Duration::millis(v); }

// Virtual length of a fault's dark/impaired window, for duration sizing.
int64_t fault_end_ms(const FuzzFault& f) {
  switch (f.kind) {
    case FuzzFaultKind::kFlap:
      return f.start_ms + f.a * (f.b + f.c);
    case FuzzFaultKind::kShape:
      return f.start_ms;  // instantaneous; persists but impairs nothing
    default:
      return f.start_ms + f.length_ms;
  }
}

bool is_connectivity_fault(const FuzzFault& f) {
  switch (f.kind) {
    case FuzzFaultKind::kOutage:
    case FuzzFaultKind::kFlap:
    case FuzzFaultKind::kSfuBlackout:
    case FuzzFaultKind::kRelayOutage:
      return true;
    case FuzzFaultKind::kBurstLoss:
      return f.c >= 500;  // loss_bad >= 50% can starve the path
    default:
      return false;
  }
}

const char* fault_kind_token(FuzzFaultKind k) {
  switch (k) {
    case FuzzFaultKind::kOutage: return "out";
    case FuzzFaultKind::kFlap: return "flap";
    case FuzzFaultKind::kBurstLoss: return "burst";
    case FuzzFaultKind::kReorder: return "reord";
    case FuzzFaultKind::kDuplicate: return "dup";
    case FuzzFaultKind::kShape: return "shape";
    case FuzzFaultKind::kSfuBlackout: return "sfu";
    case FuzzFaultKind::kRelayOutage: return "relay";
  }
  return "out";
}

bool fault_kind_from_token(const std::string& t, FuzzFaultKind* out) {
  if (t == "out") *out = FuzzFaultKind::kOutage;
  else if (t == "flap") *out = FuzzFaultKind::kFlap;
  else if (t == "burst") *out = FuzzFaultKind::kBurstLoss;
  else if (t == "reord") *out = FuzzFaultKind::kReorder;
  else if (t == "dup") *out = FuzzFaultKind::kDuplicate;
  else if (t == "shape") *out = FuzzFaultKind::kShape;
  else if (t == "sfu") *out = FuzzFaultKind::kSfuBlackout;
  else if (t == "relay") *out = FuzzFaultKind::kRelayOutage;
  else return false;
  return true;
}

const char* competitor_token(FuzzCompetitor c) {
  switch (c) {
    case FuzzCompetitor::kNone: return "none";
    case FuzzCompetitor::kBulkUp: return "bulkup";
    case FuzzCompetitor::kBulkDown: return "bulkdown";
    case FuzzCompetitor::kNetflix: return "netflix";
    case FuzzCompetitor::kYoutube: return "youtube";
  }
  return "none";
}

bool competitor_from_token(const std::string& t, FuzzCompetitor* out) {
  if (t == "none") *out = FuzzCompetitor::kNone;
  else if (t == "bulkup") *out = FuzzCompetitor::kBulkUp;
  else if (t == "bulkdown") *out = FuzzCompetitor::kBulkDown;
  else if (t == "netflix") *out = FuzzCompetitor::kNetflix;
  else if (t == "youtube") *out = FuzzCompetitor::kYoutube;
  else return false;
  return true;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t next = s.find(sep, pos);
    if (next == std::string::npos) next = s.size();
    out.push_back(s.substr(pos, next - pos));
    pos = next + 1;
  }
  return out;
}

bool parse_i64(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool parse_u64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

std::string fmt_ms(int64_t v) {
  std::ostringstream ss;
  ss << static_cast<double>(v) / 1000.0 << "s";
  return ss.str();
}

// Cross-field topology validation shared by from_spec and the runner.
// Returns nullptr when consistent, else a static description. On a
// cascaded fleet the only infrastructure targets (-1) are the sfu/relay
// kinds — the other kinds read `a` as a fault parameter, so "which
// region's SFU" would be ambiguous for them.
const char* topology_error(const FuzzScenario& sc) {
  if (sc.regions < 1) return "regions must be >= 1";
  if (sc.clients.size() < 2) return "scenario needs >= 2 clients";
  for (const FuzzClient& c : sc.clients) {
    if (c.region < 0 || c.region >= sc.regions) {
      return "client region outside [0, regions)";
    }
  }
  for (const FuzzFault& f : sc.faults) {
    if (f.target_client < -1 ||
        f.target_client >= static_cast<int>(sc.clients.size())) {
      return "fault targets a missing client";
    }
    bool infra_kind = f.kind == FuzzFaultKind::kSfuBlackout ||
                      f.kind == FuzzFaultKind::kRelayOutage;
    if (f.kind == FuzzFaultKind::kRelayOutage &&
        (sc.regions < 2 || f.target_client != -1)) {
      return "relay outage needs a cascaded fleet and target -1";
    }
    if (sc.regions > 1 && f.target_client == -1) {
      if (!infra_kind) {
        return "cascaded fleets take -1 targets only for sfu/relay faults";
      }
      if (f.a < 0 || f.a >= sc.regions) {
        return "infrastructure fault region (a) outside [0, regions)";
      }
    }
  }
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// Spec serialization
// ---------------------------------------------------------------------------

std::string FuzzScenario::to_spec() const {
  std::ostringstream ss;
  ss << "v1;seed=" << seed << ";profile=" << profile
     << ";mode=" << (speaker ? "s" : "g") << ";dur=" << duration_ms
     << ";wedge=" << (inject_wedge ? 1 : 0);
  // Cascaded-fleet fields only appear when in play, so every pre-fleet
  // spec (the committed corpus) re-serializes byte-identically.
  if (regions > 1) ss << ";reg=" << regions;
  for (const FuzzClient& c : clients) {
    ss << ";cl=" << c.up_kbps << "," << c.down_kbps << "," << c.prop_ms << ","
       << c.queue_kb << "," << c.join_ms << "," << c.leave_ms;
    if (regions > 1) ss << "," << c.region;
  }
  for (const FuzzFault& f : faults) {
    ss << ";fl=" << fault_kind_token(f.kind) << "," << f.target_client << ","
       << (f.uplink ? "u" : "d") << "," << f.start_ms << "," << f.length_ms
       << "," << f.a << "," << f.b << "," << f.c;
  }
  if (competitor != FuzzCompetitor::kNone) {
    ss << ";comp=" << competitor_token(competitor) << ","
       << competitor_start_ms << "," << competitor_len_ms;
  }
  return ss.str();
}

std::optional<FuzzScenario> FuzzScenario::from_spec(const std::string& spec) {
  FuzzScenario sc;
  sc.clients.clear();
  std::vector<std::string> tokens = split(spec, ';');
  if (tokens.empty() || tokens[0] != "v1") return std::nullopt;
  for (size_t i = 1; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    if (tok.empty()) continue;
    size_t eq = tok.find('=');
    if (eq == std::string::npos) return std::nullopt;
    std::string key = tok.substr(0, eq);
    std::string val = tok.substr(eq + 1);
    if (key == "seed") {
      if (!parse_u64(val, &sc.seed)) return std::nullopt;
    } else if (key == "profile") {
      if (val.empty()) return std::nullopt;
      sc.profile = val;
    } else if (key == "mode") {
      if (val != "s" && val != "g") return std::nullopt;
      sc.speaker = val == "s";
    } else if (key == "dur") {
      if (!parse_i64(val, &sc.duration_ms)) return std::nullopt;
    } else if (key == "wedge") {
      int64_t w;
      if (!parse_i64(val, &w) || (w != 0 && w != 1)) return std::nullopt;
      sc.inject_wedge = w == 1;
    } else if (key == "reg") {
      int64_t r;
      if (!parse_i64(val, &r) || r < 1) return std::nullopt;
      sc.regions = static_cast<int>(r);
    } else if (key == "cl") {
      std::vector<std::string> p = split(val, ',');
      // 7th field (region) is optional; absent means region 0, so the
      // pre-fleet 6-field corpus entries keep parsing.
      if (p.size() != 6 && p.size() != 7) return std::nullopt;
      FuzzClient c;
      int64_t prop, queue;
      if (!parse_i64(p[0], &c.up_kbps) || !parse_i64(p[1], &c.down_kbps) ||
          !parse_i64(p[2], &prop) || !parse_i64(p[3], &queue) ||
          !parse_i64(p[4], &c.join_ms) || !parse_i64(p[5], &c.leave_ms)) {
        return std::nullopt;
      }
      if (p.size() == 7) {
        int64_t region;
        if (!parse_i64(p[6], &region)) return std::nullopt;
        c.region = static_cast<int>(region);
      }
      c.prop_ms = static_cast<int>(prop);
      c.queue_kb = static_cast<int>(queue);
      sc.clients.push_back(c);
    } else if (key == "fl") {
      std::vector<std::string> p = split(val, ',');
      if (p.size() != 8) return std::nullopt;
      FuzzFault f;
      int64_t target;
      if (!fault_kind_from_token(p[0], &f.kind) ||
          !parse_i64(p[1], &target) || (p[2] != "u" && p[2] != "d") ||
          !parse_i64(p[3], &f.start_ms) || !parse_i64(p[4], &f.length_ms) ||
          !parse_i64(p[5], &f.a) || !parse_i64(p[6], &f.b) ||
          !parse_i64(p[7], &f.c)) {
        return std::nullopt;
      }
      f.target_client = static_cast<int>(target);
      f.uplink = p[2] == "u";
      sc.faults.push_back(f);
    } else if (key == "comp") {
      std::vector<std::string> p = split(val, ',');
      if (p.size() != 3) return std::nullopt;
      if (!competitor_from_token(p[0], &sc.competitor) ||
          !parse_i64(p[1], &sc.competitor_start_ms) ||
          !parse_i64(p[2], &sc.competitor_len_ms)) {
        return std::nullopt;
      }
    } else {
      return std::nullopt;
    }
  }
  if (topology_error(sc) != nullptr) return std::nullopt;
  return sc;
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

FuzzScenario fuzz_scenario_from_seed(uint64_t seed) {
  FuzzScenario sc;
  sc.seed = seed;
  Rng root(seed);
  Rng topo = root.fork("fuzz-topology");
  Rng fr = root.fork("fuzz-faults");
  Rng cr = root.fork("fuzz-competitor");

  // ~1 seed in 5 exercises the cascaded geo-sharded fleet with a
  // city-scale roster; the rest keep the classic single-SFU call.
  bool conference = topo.bernoulli(0.2);
  int parts;
  int64_t base_dur;
  if (conference) {
    sc.regions = static_cast<int>(topo.uniform_int(2, 4));
    std::vector<std::string> names = conference_profile_names();
    sc.profile = names[static_cast<size_t>(
        topo.uniform_int(0, static_cast<int64_t>(names.size()) - 1))];
    // Quadratic bias toward the small end: most rosters land at 10-25
    // parties, the tail reaches 50 (wall time per scenario grows with
    // roster x visible tiles, so big ones must stay rare).
    double u = topo.uniform();
    parts = 10 + static_cast<int>(40.0 * u * u);
    sc.speaker = topo.bernoulli(0.2);
    base_dur = topo.uniform_int(18, 28) * 1000;
  } else {
    std::vector<std::string> names = all_profile_names();
    sc.profile = names[static_cast<size_t>(
        topo.uniform_int(0, static_cast<int64_t>(names.size()) - 1))];
    parts = static_cast<int>(topo.uniform_int(2, 5));
    sc.speaker = parts > 2 && topo.bernoulli(0.25);
    base_dur = topo.uniform_int(45, 75) * 1000;
  }

  for (int i = 0; i < parts; ++i) {
    FuzzClient c;
    if (conference) {
      // One client pinned per region (no empty shards), rest scatter.
      c.region = i < sc.regions
                     ? i
                     : static_cast<int>(topo.uniform_int(0, sc.regions - 1));
      if (i == 0) {
        // Shaped but roomy enough that a full gallery page of base-rung
        // tiles fits: a starved downlink would read as stuck-degraded.
        c.up_kbps = topo.uniform_int(500, 8000);
        c.down_kbps = topo.uniform_int(3000, 20000);
      } else {
        c.up_kbps = topo.uniform_int(2000, 20000);
        c.down_kbps = topo.uniform_int(3000, 50000);
      }
    } else if (i == 0) {
      // The observed client gets the paper's shaped access link.
      c.up_kbps = topo.uniform_int(300, 8000);
      c.down_kbps = topo.uniform_int(300, 8000);
    } else {
      c.up_kbps = topo.uniform_int(2000, 50000);
      c.down_kbps = topo.uniform_int(2000, 50000);
    }
    c.prop_ms = static_cast<int>(topo.uniform_int(2, 30));
    // Bound bufferbloat to ~1.3 s of uplink queue delay: a watchdog with
    // a 2.5 s media timeout must not be wedged by queue sizing alone.
    int64_t cap_kb =
        std::max<int64_t>(20, std::min<int64_t>(200, c.up_kbps / 6));
    c.queue_kb = static_cast<int>(topo.uniform_int(20, cap_kb));
    sc.clients.push_back(c);
  }

  // Churn (clients 2+ only; 0 and 1 anchor the two-party core).
  for (size_t i = 2; i < sc.clients.size(); ++i) {
    int mode = static_cast<int>(topo.uniform_int(0, 3));
    FuzzClient& c = sc.clients[i];
    if (mode == 1 || mode == 3) {
      c.join_ms = topo.uniform_int(5000, base_dur / 2);
    }
    if (mode == 2 || mode == 3) {
      int64_t earliest = std::max<int64_t>(c.join_ms + 5000, 10000);
      int64_t latest = std::max(earliest, base_dur - 5000);
      c.leave_ms = topo.uniform_int(earliest, latest);
    }
  }

  // Faults: bounded windows inside [5 s, 45 s], so duration = last fault
  // end + 30 s of quiet tail stays under ~90 s of virtual time. The
  // cascaded fleet gets tighter windows ([5 s, 10 s] starts, shorter
  // impairments) because its per-virtual-second cost is much higher.
  int n_faults = static_cast<int>(fr.uniform_int(0, conference ? 4 : 6));
  int64_t last_end = 0;
  for (int i = 0; i < n_faults; ++i) {
    FuzzFault f;
    int k = static_cast<int>(fr.uniform_int(0, conference ? 7 : 6));
    f.kind = static_cast<FuzzFaultKind>(k);
    if (f.kind == FuzzFaultKind::kSfuBlackout ||
        f.kind == FuzzFaultKind::kRelayOutage) {
      f.target_client = -1;
      if (conference) f.a = fr.uniform_int(0, sc.regions - 1);
    } else {
      f.target_client = static_cast<int>(fr.uniform_int(0, parts - 1));
      f.uplink = fr.bernoulli(0.5);
    }
    f.start_ms = fr.uniform_int(5000, conference ? 10000 : 45000);
    switch (f.kind) {
      case FuzzFaultKind::kOutage:
        f.length_ms = fr.uniform_int(500, conference ? 4000 : 10000);
        break;
      case FuzzFaultKind::kSfuBlackout:
        f.length_ms = fr.uniform_int(500, conference ? 4000 : 8000);
        break;
      case FuzzFaultKind::kRelayOutage:
        f.length_ms = fr.uniform_int(500, 5000);
        break;
      case FuzzFaultKind::kFlap:
        f.a = fr.uniform_int(1, conference ? 2 : 4);             // cycles
        f.b = fr.uniform_int(200, conference ? 1500 : 3000);     // down_for
        f.c = fr.uniform_int(200, conference ? 1500 : 3000);     // up_for
        f.length_ms = f.a * (f.b + f.c);
        break;
      case FuzzFaultKind::kBurstLoss:
        f.length_ms = fr.uniform_int(1000, conference ? 6000 : 15000);
        f.a = fr.uniform_int(10, 100);        // p_good_to_bad (per-mille)
        f.b = fr.uniform_int(50, 300);        // p_bad_to_good (per-mille)
        f.c = fr.uniform_int(300, 1000);      // loss_bad (per-mille)
        break;
      case FuzzFaultKind::kReorder:
        f.length_ms = fr.uniform_int(1000, conference ? 6000 : 15000);
        f.a = fr.uniform_int(50, 300);        // prob (per-mille)
        f.b = fr.uniform_int(2, 20);          // detour ms
        break;
      case FuzzFaultKind::kDuplicate:
        f.length_ms = fr.uniform_int(1000, conference ? 6000 : 15000);
        f.a = fr.uniform_int(50, 300);        // prob (per-mille)
        break;
      case FuzzFaultKind::kShape:
        f.length_ms = 0;
        f.a = fr.uniform_int(300, 2000);      // new rate (kbps)
        break;
    }
    sc.faults.push_back(f);
    last_end = std::max(last_end, fault_end_ms(f));
  }
  sc.duration_ms = std::max(base_dur, last_end + kTailMs);

  // Competing flow on client 0's host: ends >= 15 s before the scenario
  // does, so the liveness tail is judged on a drained network. The
  // cascaded fleet skips it — cross-traffic on one access link adds
  // nothing a client shape fault doesn't, at a large wall-time cost.
  if (!conference && cr.bernoulli(0.4)) {
    sc.competitor =
        static_cast<FuzzCompetitor>(cr.uniform_int(1, 4));
    sc.competitor_start_ms = cr.uniform_int(5000, sc.duration_ms / 2);
    int64_t latest_end = sc.duration_ms - 15000;
    if (sc.competitor_start_ms + 10000 <= latest_end) {
      sc.competitor_len_ms =
          cr.uniform_int(10000, latest_end - sc.competitor_start_ms);
    } else {
      sc.competitor = FuzzCompetitor::kNone;
      sc.competitor_start_ms = 0;
    }
  }
  return sc;
}

// ---------------------------------------------------------------------------
// Execution + oracles
// ---------------------------------------------------------------------------

FuzzResult run_fuzz_scenario(const FuzzScenario& sc,
                             const FuzzRunOptions& opt) {
  FuzzResult res;
  res.seed = sc.seed;
  res.spec = sc.to_spec();
  if (const char* err = topology_error(sc)) {
    res.failures.push_back({"spec", err});
    return res;
  }
  const bool cascaded = sc.regions > 1;

  Network net;
  // Infrastructure: one SFU per region on a cascaded fleet (the region's
  // relay link pair carries inter-SFU traffic and its faults), else the
  // classic single mid-path SFU.
  std::vector<Network::Region*> regions;
  std::vector<Network::HostPorts> sfu_ports;
  if (cascaded) {
    for (int r = 0; r < sc.regions; ++r) {
      std::string name = "r" + std::to_string(r);
      regions.push_back(net.add_region(name, DataRate::gbps(2),
                                       Duration::millis(20), 8 << 20));
      sfu_ports.push_back(net.add_host_in_region(
          regions.back(), "sfu-" + name, DataRate::gbps(4),
          DataRate::gbps(4), Duration::millis(1), 8 << 20));
    }
  } else {
    sfu_ports.push_back(net.add_host("sfu", DataRate::gbps(2),
                                     DataRate::gbps(2), Duration::millis(8),
                                     4 << 20));
  }
  std::vector<Network::HostPorts> ports;
  for (size_t i = 0; i < sc.clients.size(); ++i) {
    const FuzzClient& c = sc.clients[i];
    std::string name = "c" + std::to_string(i + 1);
    DataRate up = DataRate::kbps(c.up_kbps);
    DataRate down = DataRate::kbps(c.down_kbps);
    Duration prop = Duration::millis(c.prop_ms);
    int64_t queue = static_cast<int64_t>(c.queue_kb) * 1024;
    ports.push_back(
        cascaded ? net.add_host_in_region(
                       regions[static_cast<size_t>(c.region)], name, up,
                       down, prop, queue)
                 : net.add_host(name, up, down, prop, queue));
  }

  std::unique_ptr<Call> call;
  std::unique_ptr<Conference> conf;
  std::vector<VcaClient*> cls;
  if (cascaded) {
    Conference::Config cc;
    cc.profile = vca_profile(sc.profile);
    cc.seed = sc.seed;
    cc.flow_base = kCallFlowBase;
    cc.mode = sc.speaker ? ViewMode::kSpeaker : ViewMode::kGallery;
    cc.pinned_client = 0;
    conf = std::make_unique<Conference>(&net.sched(), cc);
    for (size_t r = 0; r < sfu_ports.size(); ++r) {
      conf->add_region(sfu_ports[r].host, regions[r]->sched);
    }
    for (size_t i = 0; i < sc.clients.size(); ++i) {
      const FuzzClient& fc = sc.clients[i];
      // Conference owns churn: join_at/leave_at schedule it internally.
      TimePoint join_at =
          fc.join_ms > 0 ? at_ms(fc.join_ms) : TimePoint::zero();
      TimePoint leave_at =
          fc.leave_ms > 0 ? at_ms(fc.leave_ms) : TimePoint::infinite();
      cls.push_back(
          conf->add_client(ports[i].host, fc.region, join_at, leave_at));
    }
  } else {
    Call::Config cc;
    cc.profile = vca_profile(sc.profile);
    cc.seed = sc.seed;
    cc.flow_base = kCallFlowBase;
    cc.mode = sc.speaker ? ViewMode::kSpeaker : ViewMode::kGallery;
    cc.pinned_client = 0;
    call = std::make_unique<Call>(&net.sched(), sfu_ports[0].host, cc);
    for (auto& p : ports) cls.push_back(call->add_client(p.host));
  }

  FlowCapture* c0_up = net.capture(ports[0].up, Duration::millis(500));
  FlowCapture* c0_down = net.capture(ports[0].down, Duration::millis(500));

  // Only client targets (and the single-SFU's access links) route through
  // here; cascaded infrastructure faults are special-cased by kind.
  auto link_of = [&](const FuzzFault& f) -> Link* {
    if (f.target_client < 0) {
      return f.uplink ? sfu_ports[0].up : sfu_ports[0].down;
    }
    auto& p = ports[static_cast<size_t>(f.target_client)];
    return f.uplink ? p.up : p.down;
  };
  auto label_of = [&](const FuzzFault& f) -> std::string {
    if (f.target_client < 0) return f.uplink ? "sfu.up" : "sfu.down";
    return "c" + std::to_string(f.target_client + 1) +
           (f.uplink ? ".up" : ".down");
  };

  // Dark windows per faulted link, for the outage-silence oracle. Kept in
  // fault order (never pointer order) so failure output is deterministic.
  struct DarkLink {
    std::string label;
    Link* link;
    FlowCapture* cap;
    std::vector<std::pair<int64_t, int64_t>> windows;  // [start, end) ms
  };
  std::vector<DarkLink> dark;
  auto dark_entry = [&](const std::string& label, Link* link) -> DarkLink& {
    for (DarkLink& d : dark) {
      if (d.link == link) return d;
    }
    dark.push_back({label, link, net.capture(link, Duration::millis(50)), {}});
    return dark.back();
  };
  for (const FuzzFault& f : sc.faults) {
    switch (f.kind) {
      case FuzzFaultKind::kOutage:
        dark_entry(label_of(f), link_of(f))
            .windows.push_back({f.start_ms, f.start_ms + f.length_ms});
        break;
      case FuzzFaultKind::kFlap: {
        int64_t t = f.start_ms;
        DarkLink& d = dark_entry(label_of(f), link_of(f));
        for (int64_t i = 0; i < f.a; ++i) {
          d.windows.push_back({t, t + f.b});
          t += f.b + f.c;
        }
        break;
      }
      case FuzzFaultKind::kSfuBlackout: {
        size_t r = cascaded ? static_cast<size_t>(f.a) : 0;
        std::string base = cascaded ? "sfu-r" + std::to_string(r) : "sfu";
        dark_entry(base + ".up", sfu_ports[r].up)
            .windows.push_back({f.start_ms, f.start_ms + f.length_ms});
        dark_entry(base + ".down", sfu_ports[r].down)
            .windows.push_back({f.start_ms, f.start_ms + f.length_ms});
        break;
      }
      case FuzzFaultKind::kRelayOutage: {
        Network::Region* reg = regions[static_cast<size_t>(f.a)];
        dark_entry(reg->name + ".relay_up", reg->relay_up)
            .windows.push_back({f.start_ms, f.start_ms + f.length_ms});
        dark_entry(reg->name + ".relay_down", reg->relay_down)
            .windows.push_back({f.start_ms, f.start_ms + f.length_ms});
        break;
      }
      default:
        break;
    }
  }

  // Churn (single-SFU calls only — Conference schedules its own from
  // join_at/leave_at): late joiners are stopped by the t=0 event below
  // (scheduled before Call::start() runs, so it fires ahead of every
  // client tick), then started at join time; leavers stop mid-call and
  // never rejoin.
  if (!cascaded) {
    for (size_t i = 2; i < sc.clients.size(); ++i) {
      const FuzzClient& fc = sc.clients[i];
      VcaClient* cl = cls[i];
      if (fc.join_ms > 0) {
        net.sched().schedule_at(TimePoint::zero(), [cl] { cl->stop(); });
        net.sched().schedule_at(at_ms(fc.join_ms), [cl] { cl->start(); });
      }
      if (fc.leave_ms > 0) {
        net.sched().schedule_at(at_ms(fc.leave_ms), [cl] { cl->stop(); });
      }
    }
  }

  FaultPlan plan;
  for (const FuzzFault& f : sc.faults) {
    switch (f.kind) {
      case FuzzFaultKind::kOutage:
        plan.add_outage(link_of(f), at_ms(f.start_ms),
                        Duration::millis(f.length_ms));
        break;
      case FuzzFaultKind::kFlap:
        plan.add_flap(link_of(f), at_ms(f.start_ms), static_cast<int>(f.a),
                      Duration::millis(f.b), Duration::millis(f.c));
        break;
      case FuzzFaultKind::kBurstLoss: {
        GilbertElliott ge;
        ge.p_good_to_bad = static_cast<double>(f.a) / 1000.0;
        ge.p_bad_to_good = static_cast<double>(f.b) / 1000.0;
        ge.loss_good = 0.0;
        ge.loss_bad = static_cast<double>(f.c) / 1000.0;
        plan.add_burst_loss(link_of(f), at_ms(f.start_ms),
                            Duration::millis(f.length_ms), ge);
        break;
      }
      case FuzzFaultKind::kReorder:
        plan.add_reorder(link_of(f), at_ms(f.start_ms),
                         Duration::millis(f.length_ms),
                         static_cast<double>(f.a) / 1000.0,
                         Duration::millis(f.b));
        break;
      case FuzzFaultKind::kDuplicate:
        plan.add_duplicate(link_of(f), at_ms(f.start_ms),
                           Duration::millis(f.length_ms),
                           static_cast<double>(f.a) / 1000.0);
        break;
      case FuzzFaultKind::kShape:
        plan.add_shape(link_of(f), at_ms(f.start_ms), DataRate::kbps(f.a));
        break;
      case FuzzFaultKind::kSfuBlackout: {
        size_t r = cascaded ? static_cast<size_t>(f.a) : 0;
        plan.add_outage(sfu_ports[r].up, at_ms(f.start_ms),
                        Duration::millis(f.length_ms));
        plan.add_outage(sfu_ports[r].down, at_ms(f.start_ms),
                        Duration::millis(f.length_ms));
        SfuServer* sfu =
            cascaded ? conf->sfu(static_cast<int>(r)) : call->sfu();
        plan.at(at_ms(f.start_ms), "sfu-offline",
                [sfu] { sfu->set_online(false); });
        plan.at(at_ms(f.start_ms + f.length_ms), "sfu-restart",
                [sfu] { sfu->set_online(true); });
        break;
      }
      case FuzzFaultKind::kRelayOutage: {
        Network::Region* reg = regions[static_cast<size_t>(f.a)];
        plan.add_outage(reg->relay_up, at_ms(f.start_ms),
                        Duration::millis(f.length_ms));
        plan.add_outage(reg->relay_down, at_ms(f.start_ms),
                        Duration::millis(f.length_ms));
        break;
      }
    }
  }
  if (sc.inject_wedge) {
    // Unmatched rate->0 in the quiet tail, bypassing FaultPlan's outage
    // bookkeeping: the exact bug class satellite (a) fixed, preserved
    // here on demand so CI can prove the oracle + shrinker catch it.
    int64_t wedge_at = sc.duration_ms > kTailMs
                           ? sc.duration_ms - (kTailMs - 5000)
                           : std::max<int64_t>(1000, sc.duration_ms / 2);
    Link* l = ports[0].up;
    plan.at(at_ms(wedge_at), "wedge",
            [l] { l->set_rate(DataRate::zero()); });
  }
  plan.schedule(&net.sched());

  // Competing flow endpoints live on client 0's host (sharing its access
  // links) against a near server, like the paper's iPerf3/CDN setups.
  std::unique_ptr<BulkTcpApp> bulk;
  std::unique_ptr<AbrVideoApp> abr;
  if (sc.competitor != FuzzCompetitor::kNone) {
    auto server = net.add_host("server", DataRate::gbps(1), DataRate::gbps(1),
                               Duration::millis(1), 1 << 20);
    switch (sc.competitor) {
      case FuzzCompetitor::kBulkUp:
        bulk = std::make_unique<BulkTcpApp>(
            &net.sched(), ports[0].host, server.host,
            BulkTcpApp::Config{.flow = kCompFlowBase});
        break;
      case FuzzCompetitor::kBulkDown:
        bulk = std::make_unique<BulkTcpApp>(
            &net.sched(), server.host, ports[0].host,
            BulkTcpApp::Config{.flow = kCompFlowBase + 1});
        break;
      case FuzzCompetitor::kNetflix:
      case FuzzCompetitor::kYoutube: {
        AbrVideoApp::Config ac = sc.competitor == FuzzCompetitor::kNetflix
                                     ? AbrVideoApp::netflix()
                                     : AbrVideoApp::youtube();
        ac.flow_base = kCompFlowBase + 10;
        abr = std::make_unique<AbrVideoApp>(&net.sched(), ports[0].host,
                                            server.host, ac);
        break;
      }
      case FuzzCompetitor::kNone:
        break;
    }
    net.sched().schedule_at(at_ms(sc.competitor_start_ms), [&] {
      if (bulk) bulk->start();
      if (abr) abr->start();
    });
    net.sched().schedule_at(
        at_ms(sc.competitor_start_ms + sc.competitor_len_ms), [&] {
          if (bulk) bulk->stop();
          if (abr) abr->stop();
        });
  }

  // Run in 1 s virtual slices under the event-budget watchdog. The
  // budget is calibrated for a handful of participants; a city-scale
  // cascaded roster legitimately dispatches roster-proportional event
  // load per virtual second, so scale the storm threshold instead of
  // flagging healthy fanout.
  uint64_t budget = opt.event_budget_per_virtual_sec;
  if (cascaded) {
    budget *= std::max<uint64_t>(1, cls.size() / 4);
  }
  if (cascaded) conf->start(); else call->start();
  // A cascaded fleet runs its region shards under one ShardRunner that
  // persists across every slice, so its worker threads are spawned once.
  // Each slice's budget is a SHARED cap across the control strand and all
  // region shards: a storm confined to one region exhausts it too. The
  // single-SFU call has no shards and runs on the control scheduler.
  std::unique_ptr<ShardRunner> runner;
  if (cascaded) {
    ShardRunner::Options ro;
    ro.threads = opt.shards;
    runner = std::make_unique<ShardRunner>(&net.sched(), net.shard_scheds(),
                                           &net.shard_bus(),
                                           net.shard_lookahead(), ro);
    Conference* c = conf.get();
    runner->set_barrier_hook([c] { c->drain_deferred_keyframes(); });
  }
  auto run_capped = [&](TimePoint until, uint64_t cap) {
    return runner ? runner->run_until_capped(until, cap)
                  : net.sched().run_until_capped(until, cap);
  };
  bool storm = false;
  for (int64_t t = 0; t < sc.duration_ms && !storm; ) {
    int64_t next = std::min<int64_t>(t + 1000, sc.duration_ms);
    if (!run_capped(at_ms(next), budget)) {
      std::ostringstream d;
      d << "event budget (" << budget
        << "/virtual-sec) exhausted at t="
        << fmt_ms((net.sched().now() - TimePoint::zero()).ns() / 1'000'000);
      res.failures.push_back({"event-storm", d.str()});
      storm = true;
    }
    t = next;
  }
  if (cascaded) conf->stop(); else call->stop();
  if (!storm) {
    run_capped(at_ms(sc.duration_ms) + Duration::millis(50),
               500'000);  // flush stop handlers
  }

  // --- oracle: invariant --- (link/clock state plus, on a cascaded
  // fleet, the Conference's own "no forwarding to departed clients" /
  // stale-subscription checks)
  std::vector<std::string> viol = net.check_invariants();
  if (cascaded) conf->append_invariant_violations(&viol);
  res.invariant_violations = static_cast<int>(viol.size());
  if (opt.count_invariants_globally) {
    note_invariant_violations(static_cast<uint64_t>(viol.size()));
  }
  for (const std::string& v : viol) res.failures.push_back({"invariant", v});

  // Perf bookkeeping (same contract as the scenario runners).
  res.sim_events = note_run_perf(net);
  res.reconnects = cls[0]->reconnect_count();

  if (storm) return res;  // end-state oracles are meaningless mid-run

  // --- oracle: outage-silence ---
  for (const DarkLink& d : dark) {
    TimeSeries rs = d.cap->rates();
    for (const auto& [ws, we] : d.windows) {
      for (const Sample& s : rs.samples()) {
        int64_t bucket_end_ms = s.at.ns() / 1'000'000;
        int64_t bucket_start_ms = bucket_end_ms - 50;
        if (bucket_start_ms >= ws + kOutageGraceMs && bucket_end_ms <= we &&
            s.value > 0.0) {
          std::ostringstream det;
          det << d.label << " carried traffic at " << fmt_ms(bucket_start_ms)
              << " inside outage [" << fmt_ms(ws) << ", " << fmt_ms(we)
              << ")";
          res.failures.push_back({"outage-silence", det.str()});
          break;  // one report per window is enough
        }
      }
    }
  }

  // Fault-load summary the recovery oracles are scaled by.
  int64_t last_restore_ms = 0;
  int64_t last_fault_end_ms = 0;
  int conn_faults = 0;
  for (const FuzzFault& f : sc.faults) {
    int64_t end = fault_end_ms(f);
    last_fault_end_ms = std::max(last_fault_end_ms, end);
    if (is_connectivity_fault(f)) {
      conn_faults += f.kind == FuzzFaultKind::kFlap
                         ? static_cast<int>(f.a)
                         : 1;
      last_restore_ms = std::max(last_restore_ms, end);
    }
  }
  if (sc.competitor != FuzzCompetitor::kNone) {
    int64_t comp_end = sc.competitor_start_ms + sc.competitor_len_ms;
    last_restore_ms = std::max(last_restore_ms, comp_end);
    last_fault_end_ms = std::max(last_fault_end_ms, comp_end);
  }

  // --- oracle: liveness-wedge ---
  TimePoint end = at_ms(sc.duration_ms);
  bool tail_media =
      c0_down->mean_rate(end - Duration::seconds(10), end).bits_per_sec() > 0;
  if (!cls[0]->connected()) {
    res.failures.push_back(
        {"liveness-wedge",
         "client 0 disconnected at end of run despite a healthy tail"});
  } else if (!tail_media) {
    res.failures.push_back(
        {"liveness-wedge",
         "client 0 claims connected but received no downlink bytes in the "
         "final 10s"});
  }

  // --- oracle: ttr-bound --- (fault-era disconnects must clear within
  // the bound of the last connectivity restore; later congestion-born
  // flaps are judged only by the end-state liveness oracle above)
  {
    std::vector<std::pair<int64_t, int64_t>> down_intervals;
    int64_t open_since = -1;
    for (const ResilienceEvent& ev : cls[0]->resilience_events()) {
      int64_t t = (ev.at - TimePoint::zero()).ns() / 1'000'000;
      if (ev.kind == ResilienceEventKind::kMediaTimeout && open_since < 0) {
        open_since = t;
      } else if (ev.kind == ResilienceEventKind::kReconnected &&
                 open_since >= 0) {
        down_intervals.push_back({open_since, t});
        open_since = -1;
      }
    }
    if (open_since >= 0) down_intervals.push_back({open_since, sc.duration_ms});
    for (const auto& [s, e] : down_intervals) {
      if (s <= last_restore_ms && e > last_restore_ms + kTtrBoundMs) {
        std::ostringstream det;
        det << "client 0 disconnected at " << fmt_ms(s)
            << " and not reconnected until " << fmt_ms(e)
            << " (connectivity restored by " << fmt_ms(last_restore_ms)
            << ", bound " << fmt_ms(kTtrBoundMs) << ")";
        res.failures.push_back({"ttr-bound", det.str()});
      }
    }
  }

  // --- oracle: reconnect-storm ---
  int storm_bound = 60 + 20 * conn_faults;
  if (res.reconnects > storm_bound) {
    std::ostringstream det;
    det << "client 0 reconnected " << res.reconnects << " times (bound "
        << storm_bound << " for " << conn_faults << " connectivity faults)";
    res.failures.push_back({"reconnect-storm", det.str()});
  }

  // --- oracle: stuck-degraded ---
  if (cls[0]->audio_only() &&
      sc.duration_ms - last_fault_end_ms >= 20000) {
    std::ostringstream det;
    det << "client 0 still audio-only at end of run, "
        << fmt_ms(sc.duration_ms - last_fault_end_ms)
        << " after the last fault cleared";
    res.failures.push_back({"stuck-degraded", det.str()});
  }

  // --- oracle: stat-sanity ---
  {
    auto bad = [&](const std::string& what, double v, double lo, double hi) {
      if (std::isfinite(v) && v >= lo && v <= hi) return;
      std::ostringstream det;
      det << what << " = " << v << " outside [" << lo << ", " << hi << "]";
      res.failures.push_back({"stat-sanity", det.str()});
    };
    const auto& feeds = cls[0]->feeds();
    for (size_t i = 0; i < feeds.size(); ++i) {
      std::string tag = "client 0 feed " + std::to_string(i) + " ";
      bad(tag + "median_fps", feeds[i]->stats->median_fps(), 0.0, 240.0);
      bad(tag + "median_qp", feeds[i]->stats->median_qp(), 0.0, 100.0);
      bad(tag + "median_width", feeds[i]->stats->median_width(), 0.0, 4096.0);
      bad(tag + "freeze_ratio",
          feeds[i]->stats->freeze_ratio(Duration::millis(sc.duration_ms)),
          0.0, 1.000001);
    }
    bad("c1 uplink mean rate (mbps)",
        c0_up->mean_rate(TimePoint::zero(), end).mbps_f(), 0.0, 10000.0);
    bad("c1 downlink mean rate (mbps)",
        c0_down->mean_rate(TimePoint::zero(), end).mbps_f(), 0.0, 10000.0);
  }

  return res;
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

namespace {

// Smallest duration that still covers every fault window (plus tail) and
// the competitor; the wedge only needs the tail itself.
int64_t min_duration_ms(const FuzzScenario& sc) {
  int64_t need = sc.inject_wedge ? kTailMs + 5000 : 15000;
  for (const FuzzFault& f : sc.faults) {
    need = std::max(need, fault_end_ms(f) + kTailMs);
  }
  if (sc.competitor != FuzzCompetitor::kNone) {
    need = std::max(need,
                    sc.competitor_start_ms + sc.competitor_len_ms + 15000);
  }
  for (const FuzzClient& c : sc.clients) {
    need = std::max({need, c.join_ms + 5000, c.leave_ms + 5000});
  }
  return need;
}

}  // namespace

std::optional<ShrinkResult> shrink_failure(const FuzzScenario& sc,
                                           const FuzzRunOptions& opt0) {
  FuzzRunOptions opt = opt0;
  // Re-running a known-bad scenario dozens of times must not multiply the
  // process-wide violation count the final report surfaces.
  opt.count_invariants_globally = false;

  int runs = 0;
  constexpr int kMaxRuns = 400;
  FuzzResult base = run_fuzz_scenario(sc, opt);
  ++runs;
  if (base.ok()) return std::nullopt;
  const std::string category = base.failures.front().category;
  std::string detail = base.failures.front().detail;
  FuzzScenario cur = sc;

  auto fails_same = [&](const FuzzScenario& cand, std::string* d) {
    if (runs >= kMaxRuns) return false;
    FuzzResult r = run_fuzz_scenario(cand, opt);
    ++runs;
    for (const FuzzFailure& f : r.failures) {
      if (f.category == category) {
        *d = f.detail;
        return true;
      }
    }
    return false;
  };
  auto try_accept = [&](const FuzzScenario& cand) {
    std::string d;
    if (fails_same(cand, &d)) {
      cur = cand;
      detail = d;
      return true;
    }
    return false;
  };

  bool changed = true;
  while (changed && runs < kMaxRuns) {
    changed = false;

    // Structural simplifications, cheapest first.
    if (cur.competitor != FuzzCompetitor::kNone) {
      FuzzScenario cand = cur;
      cand.competitor = FuzzCompetitor::kNone;
      cand.competitor_start_ms = cand.competitor_len_ms = 0;
      if (try_accept(cand)) changed = true;
    }
    {
      bool has_churn = false;
      for (const FuzzClient& c : cur.clients) {
        if (c.join_ms > 0 || c.leave_ms > 0) has_churn = true;
      }
      if (has_churn) {
        FuzzScenario cand = cur;
        for (FuzzClient& c : cand.clients) c.join_ms = c.leave_ms = 0;
        if (try_accept(cand)) changed = true;
      }
    }
    // Cascaded fleets: collapse to one region/SFU (dropping the relay
    // links and the faults that need them) — the single-SFU replay is
    // far cheaper and most bugs aren't relay-specific.
    if (cur.regions > 1) {
      FuzzScenario cand = cur;
      cand.regions = 1;
      for (FuzzClient& c : cand.clients) c.region = 0;
      std::vector<FuzzFault> kept;
      for (FuzzFault f : cand.faults) {
        if (f.kind == FuzzFaultKind::kRelayOutage) continue;
        if (f.kind == FuzzFaultKind::kSfuBlackout) f.a = 0;
        kept.push_back(f);
      }
      cand.faults = std::move(kept);
      if (try_accept(cand)) changed = true;
    }
    // City-scale rosters: halve before trying the all-the-way-to-2 step,
    // for bugs that need N parties but not all of them.
    if (cur.clients.size() > 4) {
      FuzzScenario cand = cur;
      cand.clients.resize(cur.clients.size() / 2);
      std::vector<FuzzFault> kept;
      for (const FuzzFault& f : cand.faults) {
        if (f.target_client < static_cast<int>(cand.clients.size())) {
          kept.push_back(f);
        }
      }
      cand.faults = std::move(kept);
      if (try_accept(cand)) changed = true;
    }
    if (cur.clients.size() > 2) {
      // Drop every extra participant (and the faults aimed at them).
      FuzzScenario cand = cur;
      cand.clients.resize(2);
      std::vector<FuzzFault> kept;
      for (const FuzzFault& f : cand.faults) {
        if (f.target_client < 2) kept.push_back(f);
      }
      cand.faults = std::move(kept);
      if (try_accept(cand)) changed = true;
    }
    if (cur.speaker) {
      FuzzScenario cand = cur;
      cand.speaker = false;
      if (try_accept(cand)) changed = true;
    }

    // All faults gone at once? (the common case for injected wedges)
    if (!cur.faults.empty()) {
      FuzzScenario cand = cur;
      cand.faults.clear();
      if (try_accept(cand)) changed = true;
    }

    // ddmin over the remaining fault list.
    if (cur.faults.size() > 1 && runs < kMaxRuns) {
      size_t n = 2;
      while (n <= cur.faults.size() && runs < kMaxRuns) {
        size_t chunk = (cur.faults.size() + n - 1) / n;
        bool reduced = false;
        for (size_t i = 0; i * chunk < cur.faults.size() && runs < kMaxRuns;
             ++i) {
          FuzzScenario cand = cur;
          cand.faults.clear();
          for (size_t j = 0; j < cur.faults.size(); ++j) {
            if (j / chunk != i) cand.faults.push_back(cur.faults[j]);
          }
          if (cand.faults.size() == cur.faults.size()) continue;
          if (try_accept(cand)) {
            changed = true;
            reduced = true;
            n = std::max<size_t>(2, n - 1);
            break;
          }
        }
        if (!reduced) {
          if (n >= cur.faults.size()) break;
          n = std::min(cur.faults.size(), n * 2);
        }
      }
    }

    // Shorten the call to the minimum that still covers everything left.
    {
      int64_t need = min_duration_ms(cur);
      if (need < cur.duration_ms) {
        FuzzScenario cand = cur;
        cand.duration_ms = need;
        if (try_accept(cand)) changed = true;
      }
    }
  }

  return ShrinkResult{cur, category, detail, runs};
}

}  // namespace vca
