#include "analysis/inference.h"

#include <algorithm>
#include <sstream>

#include "core/stats_math.h"

namespace vca {

// ---------------------------------------------------------------------------
// FrameSegmenter
// ---------------------------------------------------------------------------

void FrameSegmenter::on_packet(const ParsedPacket& p) {
  // Duplication guard: an exact sequence repeat inside the sliding
  // window is the same packet delivered twice.
  if (std::find(recent_seqs_.begin(), recent_seqs_.end(), p.seq) !=
      recent_seqs_.end()) {
    ++duplicates_;
    return;
  }
  if (recent_seqs_.size() < kSeqWindow) {
    recent_seqs_.push_back(p.seq);
  } else {
    recent_seqs_[seq_cursor_] = p.seq;
    seq_cursor_ = (seq_cursor_ + 1) % kSeqWindow;
  }

  // A straggler for a frame that is still open merges into it.
  for (FrameObservation& f : open_) {
    if (f.rtp_timestamp == p.rtp_timestamp) {
      ++f.packets;
      f.ip_bytes += p.ip_bytes;
      f.end_ns = std::max(f.end_ns, p.ts_ns);
      return;
    }
  }

  // Repair traffic: a timestamp far behind the newest seen is FEC, a
  // retransmission after its frame closed, or stale-clock padding.
  if (have_ts_) {
    int32_t ahead = static_cast<int32_t>(p.rtp_timestamp - max_ts_);
    if (ahead < -kStaleTicks) {
      repair_bytes_ += p.ip_bytes;
      return;
    }
    if (ahead > 0) max_ts_ = p.rtp_timestamp;
  } else {
    have_ts_ = true;
    max_ts_ = p.rtp_timestamp;
  }

  if (open_.size() >= kMaxOpen) close_oldest();
  FrameObservation f;
  f.rtp_timestamp = p.rtp_timestamp;
  f.start_ns = p.ts_ns;
  f.end_ns = p.ts_ns;
  f.packets = 1;
  f.ip_bytes = p.ip_bytes;
  open_.push_back(f);
}

void FrameSegmenter::close_oldest() {
  closed_.push_back(open_.front());
  open_.erase(open_.begin());
}

bool FrameSegmenter::pop_closed(FrameObservation* out) {
  if (closed_cursor_ >= closed_.size()) return false;
  *out = closed_[closed_cursor_++];
  if (closed_cursor_ == closed_.size()) {
    // Fully drained: recycle the buffer so steady-state draining never
    // grows it (bounded-state contract of the streaming service).
    closed_.clear();
    closed_cursor_ = 0;
  }
  return true;
}

std::vector<FrameObservation> FrameSegmenter::finish() {
  while (!open_.empty()) close_oldest();
  std::vector<FrameObservation> out(closed_.begin() + static_cast<long>(
                                        closed_cursor_),
                                    closed_.end());
  closed_.clear();
  closed_cursor_ = 0;
  return out;
}

// ---------------------------------------------------------------------------
// StreamKey
// ---------------------------------------------------------------------------

const char* stream_kind_name(StreamKind k) {
  switch (k) {
    case StreamKind::kAudio: return "audio";
    case StreamKind::kVideo: return "video";
    case StreamKind::kControl: return "control";
    case StreamKind::kUnknown: break;
  }
  return "unknown";
}

namespace {

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string ip_str(uint32_t ip) {
  std::ostringstream ss;
  ss << ((ip >> 24) & 0xff) << '.' << ((ip >> 16) & 0xff) << '.'
     << ((ip >> 8) & 0xff) << '.' << (ip & 0xff);
  return ss.str();
}

}  // namespace

uint64_t stream_key_hash(const StreamKey& k) {
  uint64_t a = (static_cast<uint64_t>(k.src_ip) << 32) | k.dst_ip;
  uint64_t b = (static_cast<uint64_t>(k.src_port) << 48) |
               (static_cast<uint64_t>(k.dst_port) << 32) | k.ssrc;
  return splitmix64(a) ^ splitmix64(b + 0x632be59bd9b4e019ull);
}

std::string StreamReport::describe() const {
  std::ostringstream ss;
  ss << ip_str(key.src_ip) << ':' << key.src_port << "->"
     << ip_str(key.dst_ip) << ':' << key.dst_port;
  if (key.ssrc != 0) ss << " ssrc " << key.ssrc;
  return ss.str();
}

// ---------------------------------------------------------------------------
// StreamAccumulator
// ---------------------------------------------------------------------------

void StreamAccumulator::on_packet(const ParsedPacket& p) {
  if (packets_ == 0) first_ns_ = p.ts_ns;
  ++packets_;
  ip_bytes_ += p.ip_bytes;
  last_ns_ = p.ts_ns;
  if (p.is_rtp) {
    ++rtp_packets_;
    segmenter_.on_packet(p);
  } else if (p.is_rtcp) {
    ++rtcp_packets_;
  } else if (p.is_stun) {
    ++stun_packets_;
  }
  ++window_.packets;
  window_.ip_bytes += p.ip_bytes;
  drain_closed();
}

void StreamAccumulator::drain_closed() {
  FrameObservation f;
  while (segmenter_.pop_closed(&f)) note_closed_frame(f);
}

void StreamAccumulator::note_closed_frame(const FrameObservation& f) {
  int64_t sec = f.start_ns / 1'000'000'000;
  if (frames_ == 0) {
    first_frame_sec_ = sec;
    cur_sec_ = sec;
    cur_sec_frames_ = 0;
  }
  if (sec != cur_sec_) {
    int bin = std::min(cur_sec_frames_, kFpsBins - 1);
    if (cur_sec_frames_ > 0) ++fps_hist_[bin];
    cur_sec_ = sec;
    cur_sec_frames_ = 0;
  }
  ++cur_sec_frames_;
  ++frames_;
  frame_bytes_ += f.ip_bytes;
  ++window_.frames;
  int before = freeze_.freeze_events();
  freeze_.on_frame_start(f.start_ns);
  window_.freeze_events += freeze_.freeze_events() - before;
}

StreamAccumulator::Window StreamAccumulator::take_window() {
  Window out = window_;
  window_ = Window{};
  return out;
}

StreamKind StreamAccumulator::classify(const StreamReport& r) const {
  // Size/rate heuristics, blind to payload types: audio is a steady
  // trickle of small constant-size packets (tens of pps, ~100-300 B);
  // video is anything RTP with larger packets or real frame structure;
  // STUN/RTCP-dominated flows are control.
  if (rtp_packets_ == 0) {
    if (stun_packets_ + rtcp_packets_ > 0) return StreamKind::kControl;
    return StreamKind::kUnknown;
  }
  bool small_packets = r.mean_packet_bytes <= 350.0;
  bool audio_cadence = r.packets_per_sec >= 15.0 && r.packets_per_sec <= 130.0;
  if (small_packets && audio_cadence && r.frames > 0) {
    // Distinguish a genuinely small-framed video stream from audio: video
    // frames span multiple packets or arrive slower than their packets.
    double packets_per_frame =
        static_cast<double>(r.packets) / std::max(1, r.frames);
    if (packets_per_frame < 1.5) return StreamKind::kAudio;
  }
  return StreamKind::kVideo;
}

StreamKind StreamAccumulator::provisional_kind() const {
  StreamReport r;
  r.packets = packets_;
  r.frames = static_cast<int>(frames_);
  if (packets_ > 0) {
    r.mean_packet_bytes =
        static_cast<double>(ip_bytes_) / static_cast<double>(packets_);
  }
  double dur = static_cast<double>(last_ns_ - first_ns_) * 1e-9;
  if (dur > 0.0) r.packets_per_sec = static_cast<double>(packets_) / dur;
  return classify(r);
}

double StreamAccumulator::bounded_median_fps() const {
  uint64_t n = 0;
  for (int b = 0; b < kFpsBins; ++b) n += fps_hist_[b];
  if (n == 0) return 0.0;
  // Per-second frame counts are small integers, so the histogram median
  // equals the median of the sorted nonzero per-second counts.
  uint64_t lo_rank = (n - 1) / 2, hi_rank = n / 2;
  double lo = 0.0, hi = 0.0;
  uint64_t seen = 0;
  for (int b = 0; b < kFpsBins; ++b) {
    uint64_t next = seen + fps_hist_[b];
    if (lo_rank >= seen && lo_rank < next) lo = static_cast<double>(b);
    if (hi_rank >= seen && hi_rank < next) {
      hi = static_cast<double>(b);
      break;
    }
    seen = next;
  }
  return (lo + hi) / 2.0;
}

StreamReport StreamAccumulator::finish(const StreamKey& key) {
  // Close any still-open frames and route them through the same
  // incremental accounting every drained frame took.
  for (const FrameObservation& f : segmenter_.finish()) note_closed_frame(f);

  StreamReport r;
  r.key = key;
  r.packets = packets_;
  r.ip_bytes = ip_bytes_;
  if (packets_ == 0) return r;

  double dur = static_cast<double>(last_ns_ - first_ns_) * 1e-9;
  r.first_ts_sec = static_cast<double>(first_ns_) * 1e-9;
  r.last_ts_sec = static_cast<double>(last_ns_) * 1e-9;
  r.mean_packet_bytes =
      static_cast<double>(ip_bytes_) / static_cast<double>(packets_);
  if (dur > 0.0) {
    r.packets_per_sec = static_cast<double>(packets_) / dur;
    r.mean_rate_mbps = static_cast<double>(ip_bytes_) * 8.0 / dur / 1e6;
  }

  r.repair_bytes = segmenter_.repair_bytes();
  r.duplicate_packets = segmenter_.duplicate_packets();
  r.frames = static_cast<int>(frames_);
  if (frames_ > 0) {
    r.first_sec = first_frame_sec_;
    r.mean_frame_bytes = static_cast<double>(frame_bytes_) /
                         static_cast<double>(frames_);
    if (cur_sec_frames_ > 0) {
      ++fps_hist_[std::min(cur_sec_frames_, kFpsBins - 1)];
      cur_sec_frames_ = 0;
    }
    r.median_fps = bounded_median_fps();
    freeze_.finalize(last_ns_);
    r.freeze_events = freeze_.freeze_events();
    r.est_freeze_ratio = freeze_.freeze_ratio(last_ns_ - first_ns_);
    r.est_width = infer_ladder_width(r.mean_frame_bytes, r.median_fps);
    r.qoe = qoe_mos(r.median_fps, r.est_width, r.est_freeze_ratio);
  }

  r.kind = classify(r);
  return r;
}

// ---------------------------------------------------------------------------
// Trace-level analysis
// ---------------------------------------------------------------------------

const StreamReport* TraceAnalysis::primary(StreamKind kind) const {
  const StreamReport* best = nullptr;
  for (const StreamReport& s : streams) {
    if (s.kind != kind) continue;
    if (best == nullptr || s.ip_bytes > best->ip_bytes) best = &s;
  }
  return best;
}

TraceAnalysisBuilder::TraceAnalysisBuilder(double from_sec)
    : from_ns_(static_cast<int64_t>(from_sec * 1e9)) {}

void TraceAnalysisBuilder::add(const PacketRecord& rec) {
  if (rec.ts_ns < from_ns_) return;
  std::optional<ParsedPacket> p = parse_frame(rec);
  if (!p) return;

  StreamKey key{p->src_ip, p->dst_ip, p->src_port, p->dst_port,
                p->is_rtp ? p->ssrc : 0};
  StreamAccumulator* acc = nullptr;
  for (auto& [k, a] : streams_) {
    if (k == key) {
      acc = &a;
      break;
    }
  }
  if (acc == nullptr) {
    streams_.emplace_back(key, StreamAccumulator());
    acc = &streams_.back().second;
  }
  acc->on_packet(*p);

  ++packets_;
  ip_bytes_ += p->ip_bytes;
  if (first_ns_ < 0) first_ns_ = p->ts_ns;
  last_ns_ = std::max(last_ns_, p->ts_ns);
}

TraceAnalysis TraceAnalysisBuilder::finish() {
  TraceAnalysis out;
  out.packets = packets_;
  out.ip_bytes = ip_bytes_;

  std::sort(streams_.begin(), streams_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [key, acc] : streams_) {
    out.streams.push_back(acc.finish(key));
  }

  if (first_ns_ >= 0) {
    out.first_ts_sec = static_cast<double>(first_ns_) * 1e-9;
    out.last_ts_sec = static_cast<double>(last_ns_) * 1e-9;
    double dur = out.last_ts_sec - out.first_ts_sec;
    if (dur > 0.0) {
      out.mean_rate_mbps = static_cast<double>(out.ip_bytes) * 8.0 / dur / 1e6;
    }
  }
  return out;
}

TraceAnalysis analyze_records(const std::vector<PacketRecord>& records,
                              double from_sec) {
  TraceAnalysisBuilder builder(from_sec);
  for (const PacketRecord& rec : records) builder.add(rec);
  return builder.finish();
}

TraceAnalysis analyze_pcap_file(const std::string& path, double from_sec,
                                bool* ok) {
  TraceAnalysisBuilder builder(from_sec);
  PcapFileReader reader(path);
  if (ok != nullptr) *ok = reader.ok();
  PacketRecord rec;
  while (reader.next(&rec)) builder.add(rec);
  return builder.finish();
}

}  // namespace vca
