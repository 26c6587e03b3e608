// RTP media transport: sender with pacer, FEC and retransmission; receiver
// with reassembly, decode-chain tracking, NACK/FIR generation, and RTCP
// receiver reports. One RtpSender/RtpReceiver pair per SSRC (simulcast
// copies and SVC layers are separate SSRCs, as in WebRTC).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "core/inline_vec.h"
#include "core/ring.h"
#include "core/scheduler.h"
#include "core/time.h"
#include "core/units.h"
#include "media/frame.h"
#include "net/node.h"
#include "net/packet.h"

namespace vca {

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

class RtpSender {
 public:
  struct Config {
    uint32_t ssrc = 0;
    FlowId flow = 0;
    NodeId dst = kInvalidNode;
    PacketType media_type = PacketType::kRtpVideo;
    DataRate pacing_rate = DataRate::mbps(10);
    // Frames whose queueing in the pacer would exceed this are dropped
    // whole (encoder overshoot protection).
    Duration max_pacer_delay = Duration::millis(400);
    // FEC packets added per frame, as a fraction of the frame's media
    // packets (Zoom-style sender FEC). 0 disables.
    double fec_overhead = 0.0;
  };

  RtpSender(EventScheduler* sched, Host* host, Config cfg);

  // Queue one encoded frame for transmission.
  void send_frame(const EncodedFrame& frame);

  // Emit FEC-marked padding (bandwidth probing, as Zoom's FBRA-style
  // probing and SFU estimate-growth probes do). Counts toward the
  // receiver's arrival rate but never toward decodable frames.
  void send_padding(int bytes);

  // Quiesce before mid-run retirement: drops the pacer queue and the
  // retransmission history, freezes the counters, and lets any
  // already-scheduled drain fire as a no-op. The object must stay alive
  // until the run ends (park it in a graveyard) — the pacing timer
  // captures a raw `this`, so destruction cannot happen while a callback
  // is still queued.
  void shutdown();

  void set_pacing_rate(DataRate r) { cfg_.pacing_rate = r; }
  void set_fec_overhead(double f) { cfg_.fec_overhead = f; }

  // Deliver an incoming RTCP packet for this SSRC (handles NACK/FIR and
  // forwards to the feedback handler, typically the congestion controller).
  void handle_rtcp(const RtcpMeta& fb);
  void set_feedback_handler(std::function<void(const RtcpMeta&)> h) {
    feedback_handler_ = std::move(h);
  }

  // True once a FIR arrived; reading clears the flag. The encoder polls
  // this to force a keyframe.
  bool take_keyframe_request();

  int64_t sent_media_bytes() const { return sent_media_bytes_; }
  int64_t sent_fec_bytes() const { return sent_fec_bytes_; }
  // Every packet that left this sender (media + FEC/padding + RTX). For
  // SFU-owned senders this is the per-stream share of the fleet's
  // packets-forwarded/sec CPU proxy.
  int64_t sent_packets() const { return sent_packets_; }
  int64_t dropped_frames() const { return dropped_frames_; }
  int64_t pacer_queue_bytes() const { return pacer_bytes_; }
  uint32_t ssrc() const { return cfg_.ssrc; }

 private:
  void enqueue_packet(Packet p);
  void drain();
  void retransmit(const NackList& seqs);

  EventScheduler* sched_;
  Host* host_;
  Config cfg_;
  std::function<void(const RtcpMeta&)> feedback_handler_;

  uint32_t next_seq_ = 1;
  uint64_t next_packet_id_ = 1;
  double fec_credit_ = 0.0;
  RingDeque<Packet> pacer_;
  int64_t pacer_bytes_ = 0;
  bool draining_ = false;
  bool stopped_ = false;
  bool keyframe_requested_ = false;

  // Recently sent media packets retained for retransmission: a
  // direct-mapped ring keyed by seq & (kHistorySlots - 1). A NACK only
  // ever targets sequences within ~1000 of the head (see RtpReceiver's
  // missing-seq bound), comfortably inside the 2048-slot window. Only
  // video senders keep one (no receiver NACKs audio); it is allocated on
  // the first media packet and released by shutdown(). A slot stores
  // what retransmit() cannot rebuild from cfg_: the seq, the wire size
  // and the per-packet RtpMeta fields. FEC and padding never enter the
  // ring, so the slot of a seq whose +2048 partner was FEC stays valid.
  struct HistorySlot {
    uint64_t frame_id = 0;
    double fps = 0.0;
    TimePoint capture_time;
    uint32_t seq = 0;
    int size_bytes = 0;  // 0 = empty slot (a media packet never is)
    int frame_width = 0;
    int qp = 0;
    uint16_t packets_in_frame = 0;
    uint16_t packet_index = 0;
    bool keyframe = false;
    uint8_t spatial_layer = 0;
  };
  static_assert(sizeof(HistorySlot) <= 48,
                "RTX history slots must stay compact (2048 per video sender)");
  static constexpr size_t kHistorySlots = 2048;
  std::vector<HistorySlot> history_;

  int64_t sent_media_bytes_ = 0;
  int64_t sent_fec_bytes_ = 0;
  int64_t sent_packets_ = 0;
  int64_t dropped_frames_ = 0;
};

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

// Shared receive-side observer interface: the receive-side bandwidth
// estimator (cc/remb.h) implements this to see every arriving packet
// across all SSRCs on a client.
class PacketArrivalObserver {
 public:
  virtual ~PacketArrivalObserver() = default;
  virtual void on_packet(TimePoint arrival, TimePoint send_time, int bytes) = 0;
  // Loss fraction of the most recent report interval (REMB-style
  // estimators fold loss into the estimate alongside delay).
  virtual void note_loss(double /*loss_fraction*/) {}
  // Called once per feedback interval; returns the estimate to advertise
  // (zero rate = no REMB).
  virtual DataRate remb(TimePoint now) = 0;
  virtual double queuing_delay_ms() const { return 0.0; }
  virtual double trendline() const { return 0.0; }
};

// A fully decodable frame delivered to the application layer.
struct DecodedFrame {
  uint64_t frame_id = 0;
  int width = 0;
  double fps = 0.0;
  int qp = 0;
  bool keyframe = false;
  uint8_t spatial_layer = 0;
  int bytes = 0;
  TimePoint capture_time;
  TimePoint delivered_at;
  bool recovered_by_fec = false;
};

class RtpReceiver {
 public:
  struct Config {
    uint32_t ssrc = 0;
    FlowId feedback_flow = 0;        // flow id for outgoing RTCP
    NodeId feedback_dst = kInvalidNode;
    Duration report_interval = Duration::millis(100);
    bool enable_nack = true;
    // Head-of-line frame considered lost after this long; decoder then
    // stalls until the next keyframe.
    Duration frame_loss_deadline = Duration::millis(200);
    // Stalled longer than this => send a Full Intra Request.
    Duration fir_after = Duration::millis(400);
  };

  RtpReceiver(EventScheduler* sched, Host* host, Config cfg);

  // Quiesce before mid-run retirement: stops the report loop (the pending
  // tick fires once as a no-op) and ignores further packets. As with
  // RtpSender::shutdown, the object must outlive the queued callback, so
  // retire into a graveyard rather than destroying immediately.
  void shutdown();

  // Feed a media packet (called by the owning client's dispatcher).
  void handle_packet(const Packet& p);

  void set_frame_handler(std::function<void(const DecodedFrame&)> h) {
    frame_handler_ = std::move(h);
  }
  // Optional shared bandwidth estimator whose REMB rides on our reports.
  void set_arrival_observer(PacketArrivalObserver* obs) { observer_ = obs; }

  // Stats.
  int64_t received_media_bytes() const { return received_media_bytes_; }
  int fir_sent() const { return fir_sent_; }
  int nacks_sent() const { return nacks_sent_; }
  int64_t frames_decoded() const { return frames_decoded_; }
  int64_t frames_lost() const { return frames_lost_; }
  double last_loss_fraction() const { return last_loss_fraction_; }
  DataRate last_receive_rate() const { return last_receive_rate_; }
  uint32_t ssrc() const { return cfg_.ssrc; }
  bool stalled() const { return stalled_; }

 private:
  // Reassembly state for one in-flight frame. Received media packets are
  // tracked in an inline bitmask (one bit per packet index; frames up to
  // 256 packets stay heap-free, bigger ones spill), and the metadata
  // exemplar stores just the first packet's RtpMeta instead of a whole
  // Packet. Lives in an unsorted vector scanned linearly: only the few
  // frames inside the loss deadline are ever pending, and scanning by
  // value keeps iteration order independent of heap layout (the
  // determinism requirement that rules out pointer-keyed maps).
  struct PendingFrame {
    uint64_t frame_id = 0;
    uint16_t packets_in_frame = 0;
    uint16_t media_count = 0;
    int fec_received = 0;
    bool has_exemplar = false;
    InlineVec<uint64_t, 4> media_mask;
    RtpMeta exemplar;
    TimePoint first_arrival;
    int media_bytes = 0;

    bool mark_media(uint16_t index);  // false if already marked (duplicate)
  };

  void try_decode();
  void send_report();
  void schedule_report();
  PendingFrame* find_pending(uint64_t frame_id);
  void erase_pending(uint64_t frame_id);

  EventScheduler* sched_;
  Host* host_;
  Config cfg_;
  std::function<void(const DecodedFrame&)> frame_handler_;
  PacketArrivalObserver* observer_ = nullptr;

  std::vector<PendingFrame> pending_;
  uint64_t next_decode_frame_ = 0;
  bool stalled_ = false;       // waiting for a keyframe after loss
  bool stopped_ = false;       // shutdown() called; report loop ends
  bool started_ = false;
  TimePoint stall_since_;
  TimePoint last_fir_;
  TimePoint last_arrival_;

  // Sequence tracking for loss + NACK.
  int64_t highest_seq_ = -1;
  int64_t report_base_seq_ = 0;    // first seq expected in current interval
  int64_t received_in_interval_ = 0;
  int64_t bytes_in_interval_ = 0;
  std::set<uint32_t> missing_seqs_;
  std::map<uint32_t, int> nack_attempts_;

  int64_t received_media_bytes_ = 0;
  int fir_sent_ = 0;
  int nacks_sent_ = 0;
  int64_t frames_decoded_ = 0;
  int64_t frames_lost_ = 0;
  double last_loss_fraction_ = 0.0;
  DataRate last_receive_rate_;
  uint64_t next_packet_id_ = 1;
  int pending_fir_ = 0;
};

}  // namespace vca
