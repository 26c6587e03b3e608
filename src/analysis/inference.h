// Blind inference over packet traces (the paper's §3.3), built on one
// shared incremental estimator core.
//
// For Zoom the paper had no getStats() and estimated frame rate and
// media bitrate purely from packet headers, sizes, and timing in a
// tcpdump capture, then validated those estimators against
// webrtc-internals. This module is that pipeline for our traces:
//
//   PacketRecord bytes -> parse -> per-flow demux -> stream
//   classification (audio vs video vs control, by size/rate heuristics)
//   -> frame segmentation (RTP-timestamp grouping with reorder /
//   duplication / repair handling) -> per-second FPS, frame-size,
//   resolution-ladder, freeze, QoE, and utilization estimators.
//
// Two consumers share the core, StreamAccumulator, which holds O(1)
// state per flow (a per-second frame-count histogram, not a per-second
// vector):
//   * the offline per-file pipeline (analyze_records / analyze_pcap_file);
//   * the streaming service (src/streaming), where that bound lets
//     millions of concurrent flows fit a memory cap.
// Identical packets give an identical frame sequence and identical
// reports in both.
//
// Nothing in here reads simulator state; the estimators are calibrated
// against WebRtcStatsCollector ground truth by bench_inference /
// bench_inference_stream, which report the error distributions
// (EXPERIMENTS.md "Estimator accuracy").
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/estimators.h"
#include "analysis/parse.h"
#include "trace/pcap.h"

namespace vca {

// ---------------------------------------------------------------------------
// Frame segmentation
// ---------------------------------------------------------------------------

struct FrameObservation {
  uint32_t rtp_timestamp = 0;
  int64_t start_ns = 0;   // first packet of the frame on the wire
  int64_t end_ns = 0;     // last packet seen for the frame
  int packets = 0;
  int64_t ip_bytes = 0;
};

// Groups one RTP stream's packets into frames by RTP timestamp. Robust
// to the trace impairments src/net/faults can inject:
//   * duplication: a sliding window of recent sequence numbers drops
//     exact repeats;
//   * reordering: a small set of frames stays open, so a straggler with
//     an already-open timestamp merges instead of founding a new frame;
//   * repair traffic / padding: packets whose timestamp is far *behind*
//     the newest seen (FEC bursts, retransmissions after the frame
//     closed, probe padding with a stale clock) are tallied as repair
//     bytes, never as frames;
//   * loss: simply yields smaller frames — never a negative count.
class FrameSegmenter {
 public:
  void on_packet(const ParsedPacket& p);

  // Closes all open frames and returns the stream's frames in wire order.
  std::vector<FrameObservation> finish();

  // Bounded-state users drain frames as they close instead of letting
  // them accumulate until finish(); frames pop in wire order.
  bool pop_closed(FrameObservation* out);

  int64_t repair_bytes() const { return repair_bytes_; }
  int duplicate_packets() const { return duplicates_; }

 private:
  void close_oldest();

  std::vector<FrameObservation> open_;    // at most kMaxOpen, oldest first
  std::vector<FrameObservation> closed_;
  size_t closed_cursor_ = 0;              // pop_closed read position
  std::vector<uint16_t> recent_seqs_;     // ring buffer of seen seqs
  size_t seq_cursor_ = 0;
  bool have_ts_ = false;
  uint32_t max_ts_ = 0;                   // newest timestamp (wrap-aware)
  int64_t repair_bytes_ = 0;
  int duplicates_ = 0;

  static constexpr size_t kMaxOpen = 4;
  static constexpr size_t kSeqWindow = 512;
  // A timestamp this far behind the newest is repair, not a frame
  // (0.5 s at the 90 kHz video clock).
  static constexpr int32_t kStaleTicks = 45'000;
};

// ---------------------------------------------------------------------------
// Stream reports
// ---------------------------------------------------------------------------

enum class StreamKind { kUnknown, kAudio, kVideo, kControl };

const char* stream_kind_name(StreamKind k);

struct StreamKey {
  uint32_t src_ip = 0, dst_ip = 0;
  uint16_t src_port = 0, dst_port = 0;
  uint32_t ssrc = 0;  // 0 for non-RTP flows

  auto tie() const { return std::tie(src_ip, dst_ip, src_port, dst_port, ssrc); }
  bool operator<(const StreamKey& o) const { return tie() < o.tie(); }
  bool operator==(const StreamKey& o) const { return tie() == o.tie(); }
};

// 64-bit mix of the 5-tuple, shared by the streaming flow table and the
// count-min sketch (which derives its row hashes from it). SplitMix64
// finalizer over the packed fields: cheap, well-distributed, and
// identical on every host (no std::hash dependence).
uint64_t stream_key_hash(const StreamKey& k);

struct StreamReport {
  StreamKey key;
  StreamKind kind = StreamKind::kUnknown;

  int64_t packets = 0;
  int64_t ip_bytes = 0;            // sum of IP datagram lengths
  double first_ts_sec = 0.0;
  double last_ts_sec = 0.0;
  double mean_packet_bytes = 0.0;  // IP bytes per packet
  double packets_per_sec = 0.0;
  double mean_rate_mbps = 0.0;     // IP-layer rate over the stream's life

  // Video estimates (frame segmentation output).
  int frames = 0;
  double median_fps = 0.0;         // median of nonzero per-second counts
  double mean_frame_bytes = 0.0;
  int64_t repair_bytes = 0;        // FEC / RTX / padding attributed blind
  int duplicate_packets = 0;
  int64_t first_sec = 0;           // second of the first closed frame

  // Extended blind estimates (analysis/estimators.h). All derived from
  // headers alone; 0 when there is no video signal.
  int est_width = 0;               // resolution-ladder inference
  int freeze_events = 0;           // blind freeze detections
  double est_freeze_ratio = 0.0;   // frozen share of the stream's life
  double qoe = 0.0;                // Sharma-style MOS proxy, 1..5

  std::string describe() const;  // "10.0.0.2:2024->10.0.0.5:2024 ssrc 130"
  bool operator==(const StreamReport&) const = default;
};

// ---------------------------------------------------------------------------
// Incremental per-flow estimator (the shared core)
// ---------------------------------------------------------------------------

// Consumes one flow's parsed packets one at a time and produces a
// StreamReport. Per-second frame counts go into a constant-size
// histogram whose median equals the sorted-vector median for integer
// counts, so per-flow state is O(1) regardless of stream length.
class StreamAccumulator {
 public:
  // Per-second window counters for the streaming service; reset by
  // take_window().
  struct Window {
    int64_t packets = 0;
    int64_t ip_bytes = 0;
    int frames = 0;         // frames closed during the window
    int freeze_events = 0;  // blind freeze detections during the window
    bool operator==(const Window&) const = default;
  };

  void on_packet(const ParsedPacket& p);

  // Closes open frames and builds the final report (stamped with `key`).
  StreamReport finish(const StreamKey& key);

  // Live introspection (streaming service).
  int64_t packets() const { return packets_; }
  int64_t ip_bytes() const { return ip_bytes_; }
  int64_t first_ns() const { return first_ns_; }
  int64_t last_ns() const { return last_ns_; }
  // Classification from the evidence so far (cheap; used for window
  // reports before the stream ends).
  StreamKind provisional_kind() const;
  Window take_window();

 private:
  void drain_closed();
  void note_closed_frame(const FrameObservation& f);
  StreamKind classify(const StreamReport& r) const;
  double bounded_median_fps() const;

  static constexpr int kFpsBins = 128;  // per-second counts above clamp here

  FrameSegmenter segmenter_;
  GapFreezeEstimator freeze_;
  int64_t packets_ = 0;
  int64_t ip_bytes_ = 0;
  int64_t first_ns_ = 0;
  int64_t last_ns_ = 0;
  int64_t rtp_packets_ = 0;
  int64_t rtcp_packets_ = 0;
  int64_t stun_packets_ = 0;
  // Closed-frame aggregates.
  int64_t frames_ = 0;
  int64_t frame_bytes_ = 0;
  int64_t first_frame_sec_ = 0;
  int64_t cur_sec_ = 0;
  int cur_sec_frames_ = 0;
  uint32_t fps_hist_[kFpsBins] = {};  // seconds by frame count
  Window window_;
  int freeze_events_at_window_ = 0;
};

// ---------------------------------------------------------------------------
// Trace-level analysis
// ---------------------------------------------------------------------------

struct TraceAnalysis {
  std::vector<StreamReport> streams;  // deterministic: sorted by key
  int64_t packets = 0;
  int64_t ip_bytes = 0;
  double first_ts_sec = 0.0;
  double last_ts_sec = 0.0;
  double mean_rate_mbps = 0.0;  // aggregate IP-layer utilization

  // Highest-byte-count stream of the given kind; nullptr if none.
  const StreamReport* primary(StreamKind kind) const;
  const StreamReport* primary_video() const {
    return primary(StreamKind::kVideo);
  }
};

// Incremental offline analysis: feed records one at a time (e.g. from a
// chunked pcap read) and finish() when the trace ends. Packets with
// timestamps before `from_sec` are ignored (measurement-window trim,
// like cutting the first 30 s of a capture before computing medians).
class TraceAnalysisBuilder {
 public:
  explicit TraceAnalysisBuilder(double from_sec = 0.0);
  void add(const PacketRecord& rec);
  TraceAnalysis finish();

 private:
  int64_t from_ns_;
  int64_t packets_ = 0;
  int64_t ip_bytes_ = 0;
  int64_t first_ns_ = -1;
  int64_t last_ns_ = 0;
  // A capture of our testbed holds a handful of flows, so demux is a
  // flat vector with linear lookup; finish() sorts by key for the
  // deterministic report order. (The streaming service, which must hold
  // millions of flows, has its own sketch-backed table.)
  std::vector<std::pair<StreamKey, StreamAccumulator>> streams_;
};

// Runs the full blind pipeline over an in-memory record vector.
TraceAnalysis analyze_records(const std::vector<PacketRecord>& records,
                              double from_sec = 0.0);

// Convenience: analyze a libpcap file with a bounded read buffer (records
// stream through the pipeline one at a time; the file is never loaded
// whole). Sets *ok (when non-null) to false if the file cannot be opened
// or parsed.
TraceAnalysis analyze_pcap_file(const std::string& path, double from_sec = 0.0,
                                bool* ok = nullptr);

}  // namespace vca
