#include "transport/rtp.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace vca {

// ---------------------------------------------------------------------------
// RtpSender
// ---------------------------------------------------------------------------

RtpSender::RtpSender(EventScheduler* sched, Host* host, Config cfg)
    : sched_(sched), host_(host), cfg_(cfg) {}

void RtpSender::shutdown() {
  stopped_ = true;
  while (!pacer_.empty()) pacer_.pop_front();
  pacer_bytes_ = 0;
  std::vector<HistorySlot>().swap(history_);
}

void RtpSender::send_frame(const EncodedFrame& frame) {
  if (stopped_) return;
  const int payload_per_packet = kMtuBytes;
  const int n_packets =
      std::max(1, (frame.bytes + payload_per_packet - 1) / payload_per_packet);

  // Overshoot protection: drop the whole frame if the pacer is so backed
  // up that this frame would sit longer than max_pacer_delay.
  Duration projected =
      cfg_.pacing_rate.transmit_time(pacer_bytes_ + frame.bytes);
  if (projected > cfg_.max_pacer_delay) {
    ++dropped_frames_;
    return;
  }

  int remaining = frame.bytes;
  for (int i = 0; i < n_packets; ++i) {
    int payload = std::min(remaining, payload_per_packet);
    remaining -= payload;
    Packet p;
    p.flow = cfg_.flow;
    p.dst = cfg_.dst;
    p.type = cfg_.media_type;
    p.size_bytes = payload + kRtpHeaderBytes + kUdpIpHeaderBytes;
    RtpMeta m;
    m.ssrc = cfg_.ssrc;
    m.seq = next_seq_++;
    m.frame_id = frame.frame_id;
    m.packets_in_frame = static_cast<uint16_t>(n_packets);
    m.packet_index = static_cast<uint16_t>(i);
    m.keyframe = frame.keyframe;
    m.spatial_layer = frame.spatial_layer;
    m.frame_width = frame.width;
    m.fps = frame.fps;
    m.qp = frame.qp;
    m.capture_time = frame.capture_time;
    p.meta = m;
    enqueue_packet(std::move(p));
  }

  if (cfg_.fec_overhead > 0.0) {
    // Accumulate fractional FEC credit so e.g. 0.15 overhead on a
    // 4-packet frame still emits FEC packets over time.
    fec_credit_ += cfg_.fec_overhead * n_packets;
    while (fec_credit_ >= 1.0) {
      fec_credit_ -= 1.0;
      Packet p;
      p.flow = cfg_.flow;
      p.dst = cfg_.dst;
      p.type = PacketType::kRtpFec;
      p.size_bytes = payload_per_packet + kRtpHeaderBytes + kUdpIpHeaderBytes;
      RtpMeta m;
      m.ssrc = cfg_.ssrc;
      m.seq = next_seq_++;
      m.frame_id = frame.frame_id;
      m.packets_in_frame = static_cast<uint16_t>(n_packets);
      m.packet_index = 0;
      m.keyframe = frame.keyframe;
      m.spatial_layer = frame.spatial_layer;
      m.is_fec = true;
      m.frame_width = frame.width;
      m.fps = frame.fps;
      m.qp = frame.qp;
      m.capture_time = frame.capture_time;
      p.meta = m;
      enqueue_packet(std::move(p));
    }
  }
}

void RtpSender::send_padding(int bytes) {
  if (stopped_) return;
  while (bytes > 0) {
    int sz = std::min(bytes, kMtuBytes);
    bytes -= sz;
    Packet p;
    p.flow = cfg_.flow;
    p.dst = cfg_.dst;
    p.type = PacketType::kRtpFec;
    p.size_bytes = sz + kRtpHeaderBytes + kUdpIpHeaderBytes;
    RtpMeta m;
    m.ssrc = cfg_.ssrc;
    m.seq = next_seq_++;
    m.frame_id = 0;  // attaches to an already-decoded frame: pure padding
    m.packets_in_frame = 1;
    m.is_fec = true;
    p.meta = m;
    enqueue_packet(std::move(p));
  }
}

void RtpSender::enqueue_packet(Packet p) {
  pacer_bytes_ += p.size_bytes;
  pacer_.push_back(std::move(p));
  if (!draining_) {
    draining_ = true;
    sched_->schedule(Duration::zero(), [this] { drain(); });
  }
}

void RtpSender::drain() {
  if (stopped_ || pacer_.empty()) {
    draining_ = false;
    return;
  }
  draining_ = true;
  Packet p = std::move(pacer_.front());
  pacer_.pop_front();
  pacer_bytes_ -= p.size_bytes;
  p.id = next_packet_id_++;
  p.created_at = sched_->now();
  p.rtp().abs_send_time = sched_->now();
  ++sent_packets_;
  if (p.type == PacketType::kRtpFec) {
    sent_fec_bytes_ += p.size_bytes;
  } else {
    sent_media_bytes_ += p.size_bytes;
    if (cfg_.media_type == PacketType::kRtpVideo) {
      if (history_.empty()) history_.resize(kHistorySlots);
      const RtpMeta& m = p.rtp();
      history_[m.seq & (kHistorySlots - 1)] = {
          .frame_id = m.frame_id,
          .fps = m.fps,
          .capture_time = m.capture_time,
          .seq = m.seq,
          .size_bytes = p.size_bytes,
          .frame_width = m.frame_width,
          .qp = m.qp,
          .packets_in_frame = m.packets_in_frame,
          .packet_index = m.packet_index,
          .keyframe = m.keyframe,
          .spatial_layer = m.spatial_layer};
    }
  }
  Duration gap = cfg_.pacing_rate.transmit_time(p.size_bytes);
  host_->send(std::move(p));
  sched_->schedule(gap, [this] { drain(); });
}

void RtpSender::handle_rtcp(const RtcpMeta& fb) {
  if (stopped_) return;
  if (fb.fir_count > 0) keyframe_requested_ = true;
  if (!fb.nack_seqs.empty()) retransmit(fb.nack_seqs);
  if (feedback_handler_) feedback_handler_(fb);
}

void RtpSender::retransmit(const NackList& seqs) {
  if (history_.empty()) return;
  for (uint32_t seq : seqs) {
    const HistorySlot& slot = history_[seq & (kHistorySlots - 1)];
    if (slot.size_bytes == 0 || slot.seq != seq) continue;
    Packet p;
    p.id = next_packet_id_++;
    p.flow = cfg_.flow;
    p.dst = cfg_.dst;
    p.type = cfg_.media_type;
    p.size_bytes = slot.size_bytes;
    p.created_at = sched_->now();
    RtpMeta m;
    m.ssrc = cfg_.ssrc;
    m.seq = slot.seq;
    m.frame_id = slot.frame_id;
    m.packets_in_frame = slot.packets_in_frame;
    m.packet_index = slot.packet_index;
    m.keyframe = slot.keyframe;
    m.spatial_layer = slot.spatial_layer;
    m.frame_width = slot.frame_width;
    m.fps = slot.fps;
    m.qp = slot.qp;
    m.capture_time = slot.capture_time;
    m.abs_send_time = sched_->now();
    p.meta = m;
    ++sent_packets_;
    sent_media_bytes_ += p.size_bytes;
    host_->send(std::move(p));
  }
}

bool RtpSender::take_keyframe_request() {
  return std::exchange(keyframe_requested_, false);
}

// ---------------------------------------------------------------------------
// RtpReceiver
// ---------------------------------------------------------------------------

RtpReceiver::RtpReceiver(EventScheduler* sched, Host* host, Config cfg)
    : sched_(sched), host_(host), cfg_(cfg) {
  // More frames than ever sit inside the loss deadline at once; reserving
  // up front keeps the reassembly path allocation-free in steady state.
  pending_.reserve(32);
  schedule_report();
}

bool RtpReceiver::PendingFrame::mark_media(uint16_t index) {
  const size_t word = index / 64;
  const uint64_t bit = uint64_t{1} << (index % 64);
  while (media_mask.size() <= word) media_mask.push_back(0);
  if ((media_mask[word] & bit) != 0) return false;
  media_mask[word] |= bit;
  ++media_count;
  return true;
}

RtpReceiver::PendingFrame* RtpReceiver::find_pending(uint64_t frame_id) {
  for (PendingFrame& f : pending_) {
    if (f.frame_id == frame_id) return &f;
  }
  return nullptr;
}

void RtpReceiver::erase_pending(uint64_t frame_id) {
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].frame_id == frame_id) {
      if (i + 1 != pending_.size()) pending_[i] = std::move(pending_.back());
      pending_.pop_back();
      return;
    }
  }
}

void RtpReceiver::shutdown() { stopped_ = true; }

void RtpReceiver::schedule_report() {
  sched_->schedule(cfg_.report_interval, [this] {
    if (stopped_) return;  // retired mid-run: let the loop die quietly
    try_decode();          // also advances loss deadlines during silence
    send_report();
    schedule_report();
  });
}

void RtpReceiver::handle_packet(const Packet& p) {
  if (stopped_) return;
  const RtpMeta& m = p.rtp();
  if (m.ssrc != cfg_.ssrc) return;
  TimePoint now = sched_->now();

  if (observer_ != nullptr) observer_->on_packet(now, m.abs_send_time, p.size_bytes);

  received_media_bytes_ += p.size_bytes;
  bytes_in_interval_ += p.size_bytes;
  ++received_in_interval_;
  last_arrival_ = now;

  // Sequence bookkeeping for loss fraction and NACKs.
  int64_t seq = m.seq;
  if (highest_seq_ < 0) {
    highest_seq_ = seq;
    report_base_seq_ = seq;
  } else if (seq > highest_seq_) {
    for (int64_t s = highest_seq_ + 1; s < seq; ++s) {
      missing_seqs_.insert(static_cast<uint32_t>(s));
    }
    highest_seq_ = seq;
  } else {
    missing_seqs_.erase(static_cast<uint32_t>(seq));  // late or retransmitted
    nack_attempts_.erase(static_cast<uint32_t>(seq));
  }

  // Frame reassembly.
  PendingFrame* f = find_pending(m.frame_id);
  if (f == nullptr) {
    f = &pending_.emplace_back();
    f->frame_id = m.frame_id;
    f->packets_in_frame = m.packets_in_frame;
    f->first_arrival = now;
  }
  if (m.is_fec) {
    ++f->fec_received;
  } else {
    f->mark_media(m.packet_index);
    f->media_bytes += p.size_bytes;
  }
  if (!f->has_exemplar) {
    f->has_exemplar = true;
    f->exemplar = m;
  }

  try_decode();
}

void RtpReceiver::try_decode() {
  TimePoint now = sched_->now();
  // Drop state for frames behind the decode head (e.g. padding packets
  // tagged with old frame ids).
  if (started_) {
    for (size_t i = 0; i < pending_.size();) {
      if (pending_[i].frame_id < next_decode_frame_) {
        if (i + 1 != pending_.size()) pending_[i] = std::move(pending_.back());
        pending_.pop_back();
      } else {
        ++i;
      }
    }
  }
  if (!started_) {
    if (pending_.empty()) return;
    uint64_t min_id = pending_.front().frame_id;
    for (const PendingFrame& pf : pending_) {
      if (pf.frame_id < min_id) min_id = pf.frame_id;
    }
    next_decode_frame_ = min_id;
    started_ = true;
  }

  bool progress = true;
  while (progress) {
    progress = false;
    PendingFrame* f = find_pending(next_decode_frame_);
    if (f != nullptr) {
      bool complete = f->media_count >= f->packets_in_frame;
      // FEC can only repair a frame we saw at least one media packet of;
      // pure-FEC "frames" (probe padding) are never decodable.
      bool recoverable =
          f->media_count > 0 &&
          static_cast<int>(f->media_count) + f->fec_received >=
              static_cast<int>(f->packets_in_frame);
      if (complete || recoverable) {
        const RtpMeta& m = f->exemplar;
        // After a loss we only resume on a keyframe; drop inter frames.
        if (!stalled_ || m.keyframe) {
          DecodedFrame out;
          out.frame_id = m.frame_id;
          out.width = m.frame_width;
          out.fps = m.fps;
          out.qp = m.qp;
          out.keyframe = m.keyframe;
          out.spatial_layer = m.spatial_layer;
          out.bytes = f->media_bytes;
          out.capture_time = m.capture_time;
          out.delivered_at = now;
          out.recovered_by_fec = !complete && recoverable;
          ++frames_decoded_;
          stalled_ = false;
          if (frame_handler_) frame_handler_(out);
        } else {
          ++frames_lost_;  // decodable but discarded while waiting for IDR
        }
        erase_pending(next_decode_frame_);
        ++next_decode_frame_;
        progress = true;
        continue;
      }
      // Incomplete: give up after the deadline and stall until a keyframe.
      if (now - f->first_arrival > cfg_.frame_loss_deadline) {
        ++frames_lost_;
        if (!stalled_) {
          stalled_ = true;
          stall_since_ = now;
        }
        erase_pending(next_decode_frame_);
        ++next_decode_frame_;
        progress = true;
        continue;
      }
      break;  // still waiting for packets within the deadline
    }
    // Frame never seen. If any *later* frame has been waiting past the
    // deadline, declare this one lost and move on. (The earliest later
    // frame stands in for the map's upper_bound.)
    const PendingFrame* later = nullptr;
    for (const PendingFrame& pf : pending_) {
      if (pf.frame_id > next_decode_frame_ &&
          (later == nullptr || pf.frame_id < later->frame_id)) {
        later = &pf;
      }
    }
    if (later != nullptr &&
        now - later->first_arrival > cfg_.frame_loss_deadline) {
      ++frames_lost_;
      if (!stalled_) {
        stalled_ = true;
        stall_since_ = now;
      }
      ++next_decode_frame_;
      progress = true;
      continue;
    }
    break;
  }

  // Total silence also counts as a stall: the stream is live but nothing
  // is arriving (e.g. the shaped link is dropping everything).
  if (!stalled_ && started_ && pending_.empty() &&
      now - last_arrival_ > cfg_.frame_loss_deadline * 2) {
    stalled_ = true;
    stall_since_ = last_arrival_;
  }

  // FIR generation while stalled. A stream silent for several seconds is
  // treated as paused (e.g. a simulcast copy the sender stopped encoding),
  // not broken — receivers stop soliciting keyframes for it.
  bool paused = now - last_arrival_ > Duration::seconds(3);
  if (stalled_ && !paused && now - stall_since_ > cfg_.fir_after &&
      now - last_fir_ > cfg_.fir_after) {
    ++pending_fir_;
    ++fir_sent_;
    last_fir_ = now;
  }
}

void RtpReceiver::send_report() {
  TimePoint now = sched_->now();
  RtcpMeta fb;
  fb.ssrc = cfg_.ssrc;

  int64_t expected = highest_seq_ >= report_base_seq_
                         ? highest_seq_ - report_base_seq_ + 1
                         : 0;
  int64_t lost = std::max<int64_t>(0, expected - received_in_interval_);
  fb.loss_fraction =
      expected > 0 ? static_cast<double>(lost) / static_cast<double>(expected)
                   : 0.0;
  fb.receive_rate = rate_from_bytes(bytes_in_interval_, cfg_.report_interval);
  fb.highest_seq = highest_seq_;
  fb.fir_count = pending_fir_;

  if (observer_ != nullptr) {
    observer_->note_loss(fb.loss_fraction);
    fb.remb = observer_->remb(now);
    fb.queuing_delay_ms = observer_->queuing_delay_ms();
    fb.delay_gradient_ms_per_s = observer_->trendline();
  }

  if (cfg_.enable_nack) {
    for (uint32_t seq : missing_seqs_) {
      int& attempts = nack_attempts_[seq];
      if (attempts < 2) {
        ++attempts;
        fb.nack_seqs.push_back(seq);
      }
    }
    nacks_sent_ += static_cast<int>(fb.nack_seqs.size());
  }
  // Bound NACK state: anything far behind the head is unrecoverable.
  while (!missing_seqs_.empty() &&
         static_cast<int64_t>(*missing_seqs_.begin()) < highest_seq_ - 1000) {
    nack_attempts_.erase(*missing_seqs_.begin());
    missing_seqs_.erase(missing_seqs_.begin());
  }

  last_loss_fraction_ = fb.loss_fraction;
  last_receive_rate_ = fb.receive_rate;

  Packet p;
  p.id = next_packet_id_++;
  p.flow = cfg_.feedback_flow;
  p.dst = cfg_.feedback_dst;
  p.type = PacketType::kRtcp;
  p.size_bytes = 80 + static_cast<int>(fb.nack_seqs.size()) * 4;
  p.created_at = now;
  p.meta = std::move(fb);
  host_->send(std::move(p));

  report_base_seq_ = highest_seq_ + 1;
  received_in_interval_ = 0;
  bytes_in_interval_ = 0;
  pending_fir_ = 0;
}

}  // namespace vca
