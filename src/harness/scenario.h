// Experiment runners: one function per experiment family in the paper.
// The bench binaries sweep these and print the paper's tables/series.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/timeseries.h"
#include "core/units.h"
#include "stats/ttr.h"
#include "stats/webrtc_stats.h"
#include "trace/pcap.h"
#include "vca/layout.h"

namespace vca {

// ---------------------------------------------------------------------------
// §3: two-party call under static shaping.
// ---------------------------------------------------------------------------

struct FeedQuality {
  double median_fps = 0.0;
  double median_qp = 0.0;
  double median_width = 0.0;
  double freeze_ratio = 0.0;
  int fir_upstream = 0;  // FIRs triggered by this publisher's uplink stream
};

struct TwoPartyConfig {
  std::string profile = "meet";
  uint64_t seed = 1;
  DataRate c1_up = DataRate::gbps(1);
  DataRate c1_down = DataRate::gbps(1);
  Duration duration = Duration::seconds(150);  // the paper's 2.5-minute calls
  Duration measure_from = Duration::seconds(30);
  Duration bucket = Duration::seconds(1);
  // Path impairments on C1's access links (the paper's §8 future work:
  // "other network factors such as latency, packet loss, and jitter").
  double c1_loss = 0.0;
  Duration c1_extra_latency = Duration::zero();
  Duration c1_jitter = Duration::zero();
  // Packet-trace capture: the simulated `tcpdump` on C1's access links.
  // Records land in TwoPartyResult; pcap_path (when set) additionally
  // writes the downlink trace to a libpcap file.
  bool capture_traces = false;
  uint32_t trace_snaplen = kPcapDefaultSnaplen;
  std::string pcap_path;
};

struct TwoPartyResult {
  double c1_up_mbps = 0.0;    // mean utilization over the measure window
  double c1_down_mbps = 0.0;
  TimeSeries c1_up_series;
  TimeSeries c1_down_series;
  FeedQuality c1_received;    // the stream C1 watches (C2's video)
  FeedQuality c2_received;    // the stream C2 watches (C1's video)
  // Populated when cfg.capture_traces: header-level traces of C1's
  // access links plus the getStats()-style ground truth for the stream
  // C1 watches, so offline estimators can be validated blind.
  std::vector<PacketRecord> c1_down_records;
  std::vector<PacketRecord> c1_up_records;
  std::vector<SecondStats> c1_recv_seconds;
};

TwoPartyResult run_two_party(const TwoPartyConfig& cfg);

// ---------------------------------------------------------------------------
// §4: transient capacity disruption.
// ---------------------------------------------------------------------------

struct DisruptionConfig {
  std::string profile = "meet";
  uint64_t seed = 1;
  bool uplink = true;  // disrupt C1's uplink (else its downlink)
  DataRate drop_to = DataRate::kbps(250);
  Duration start = Duration::seconds(60);
  Duration length = Duration::seconds(30);
  Duration total = Duration::seconds(300);
};

struct DisruptionResult {
  TimeSeries disrupted_series;  // C1 bitrate in the disrupted direction
  TimeSeries c2_up_series;      // the far client's uplink (Fig 6)
  TtrResult ttr;
};

DisruptionResult run_disruption(const DisruptionConfig& cfg);

// ---------------------------------------------------------------------------
// Fault injection: a hard mid-call outage (rate -> 0, not merely shaped
// down) or an SFU blackout, driven by a FaultPlan. Measures how each
// profile's resilience machinery detects the dead path, reconnects once
// service returns, and how long the media rate takes to recover.
// ---------------------------------------------------------------------------

enum class OutageTarget {
  kUplink,    // C1's access uplink goes dark
  kDownlink,  // C1's access downlink goes dark
  kBoth,      // both directions (modem reboot)
  kSfu,       // the server blacks out for everyone
};

struct OutageConfig {
  std::string profile = "meet";
  uint64_t seed = 1;
  OutageTarget target = OutageTarget::kUplink;
  Duration start = Duration::seconds(60);
  Duration length = Duration::seconds(10);
  Duration total = Duration::seconds(180);
};

struct OutageResult {
  TimeSeries c1_up_series;
  TimeSeries c1_down_series;
  TtrResult ttr;  // recovery of the outage-affected direction
  // Outage onset -> the client's watchdog declaring the path dead.
  std::optional<Duration> detect_delay;
  // Service restoration -> the client's first successful reconnect.
  std::optional<Duration> reconnect_delay;
  int reconnects = 0;
  int degrade_events = 0;  // audio-only degradations observed
  std::vector<std::string> invariant_violations;  // empty == healthy sim
};

OutageResult run_outage(const OutageConfig& cfg);

// ---------------------------------------------------------------------------
// §5: competition on a shared bottleneck (paper Fig 7 topology).
// ---------------------------------------------------------------------------

enum class CompetitorKind { kVca, kIperfUp, kIperfDown, kNetflix, kYoutube };

struct CompetitionConfig {
  std::string incumbent = "zoom";
  CompetitorKind competitor = CompetitorKind::kVca;
  std::string competitor_profile = "meet";  // used when competitor == kVca
  DataRate link = DataRate::kbps(500);      // symmetric segment capacity
  uint64_t seed = 1;
  Duration competitor_start = Duration::seconds(30);
  Duration competitor_len = Duration::seconds(120);
  Duration total = Duration::seconds(180);
  Duration bucket = Duration::seconds(1);
};

struct CompetitionResult {
  // Mean rates over the competition window, and shares of link capacity.
  double incumbent_up_mbps = 0.0, incumbent_down_mbps = 0.0;
  double competitor_up_mbps = 0.0, competitor_down_mbps = 0.0;
  double incumbent_up_share = 0.0, incumbent_down_share = 0.0;
  double competitor_up_share = 0.0, competitor_down_share = 0.0;
  TimeSeries incumbent_up_series, incumbent_down_series;
  TimeSeries competitor_up_series, competitor_down_series;
  // Fig 14b.
  int competitor_connections = 0;
  int competitor_max_parallel = 0;
};

CompetitionResult run_competition(const CompetitionConfig& cfg);

// ---------------------------------------------------------------------------
// §6: call modalities.
// ---------------------------------------------------------------------------

struct MultipartyConfig {
  std::string profile = "meet";
  int participants = 4;
  ViewMode mode = ViewMode::kGallery;
  uint64_t seed = 1;
  Duration duration = Duration::seconds(120);
  Duration measure_from = Duration::seconds(40);
};

struct MultipartyResult {
  double c1_up_mbps = 0.0;    // client 1 = the observed / pinned client
  double c1_down_mbps = 0.0;
};

MultipartyResult run_multiparty(const MultipartyConfig& cfg);

// ---------------------------------------------------------------------------
// City-scale cascaded-SFU conference (Chang et al.'s deployment scale):
// one SFU per region, clients sharded round-robin across regions, media
// crossing each inter-SFU relay link exactly once per (publisher, peer
// region). Supports join/leave churn and region-scoped fault injection.
// ---------------------------------------------------------------------------

struct ConferenceConfig {
  std::string profile = "webex";
  int participants = 16;
  int regions = 2;
  ViewMode mode = ViewMode::kGallery;
  uint64_t seed = 1;
  Duration duration = Duration::seconds(60);
  Duration measure_from = Duration::seconds(20);
  // Client access links (finite: the per-client downlink is what caps
  // receive bitrate as the gallery grows).
  DataRate client_up = DataRate::mbps(10);
  DataRate client_down = DataRate::mbps(25);
  // Inter-SFU relay links.
  DataRate relay_rate = DataRate::gbps(2);
  Duration relay_prop = Duration::millis(25);
  // Churn: the last `late_joiners` clients join staggered after
  // `churn_start`; `early_leavers` clients (from the middle of the
  // roster) leave staggered after `churn_start`.
  int late_joiners = 0;
  int early_leavers = 0;
  Duration churn_start = Duration::seconds(25);
  Duration churn_step = Duration::seconds(2);
  // Region-scoped faults (negative region index = disabled).
  int relay_outage_region = -1;   // blackout that region's relay links
  int sfu_blackout_region = -1;   // that region's SFU process goes dark
  Duration fault_start = Duration::seconds(30);
  Duration fault_length = Duration::seconds(10);
  // Packet-trace capture of the observed client's downlink (the corpus
  // generator's vantage point), as in TwoPartyConfig.
  bool capture_traces = false;
  uint32_t trace_snaplen = kPcapDefaultSnaplen;
  std::string pcap_path;
  // Worker threads of the sharded event core (net/shard.h). The
  // simulation is always partitioned into one logical shard per region
  // plus a control strand; the partition is fixed by the topology, so
  // results are byte-identical at any thread count and only wall-clock
  // changes with it.
  int shards = 1;
};

struct ConferenceRegionStats {
  std::string name;
  int clients = 0;
  int64_t forwarded_packets = 0;   // SFU-originated, incl. retired streams
  double forwarded_pps = 0.0;      // per wall second of the whole run
  int peak_subscriptions = 0;      // local fanout degree high-water mark
  int relay_out_streams = 0;       // live relay egresses at end of run
  double relay_up_mbps = 0.0;      // mean over the measure window
  double relay_down_mbps = 0.0;
  double relay_up_utilization = 0.0;  // of relay capacity
};

struct ConferenceResult {
  // The observed client (roster index 0).
  double c1_up_mbps = 0.0;
  double c1_down_mbps = 0.0;
  // Across all clients active during the measure window.
  double mean_client_down_mbps = 0.0;
  double mean_client_up_mbps = 0.0;
  // Per-region means of the same (region-scoped degradation shows here).
  std::vector<double> region_mean_down_mbps;
  std::vector<ConferenceRegionStats> regions;
  int64_t total_forwarded_packets = 0;
  int active_at_end = 0;
  int64_t forwards_to_departed = 0;
  std::vector<std::string> invariant_violations;  // empty == healthy sim
  // Populated when cfg.capture_traces (cf. TwoPartyResult).
  std::vector<PacketRecord> c1_down_records;
  std::vector<SecondStats> c1_recv_seconds;
};

ConferenceResult run_conference(const ConferenceConfig& cfg);

// Queue sizing for a shaped link: ~300 ms of buffering, with floors and
// ceilings, roughly what a CPE + tc qdisc gives.
int64_t queue_bytes_for(DataRate rate);

}  // namespace vca
