#include <gtest/gtest.h>

#include <vector>

#include "sim_fixture.h"
#include "transport/rtp.h"

namespace vca {
namespace {

using namespace vca::literals;
using vca::testing::TwoHostNet;

constexpr FlowId kMedia = 10;
constexpr FlowId kFeedback = 11;

struct RtpPair {
  TwoHostNet& net;
  RtpSender sender;
  RtpReceiver receiver;
  std::vector<DecodedFrame> frames;

  explicit RtpPair(TwoHostNet& n, double fec = 0.0)
      : net(n),
        sender(&n.sched, &n.c1,
               {.ssrc = 1,
                .flow = kMedia,
                .dst = n.c2.id(),
                .pacing_rate = DataRate::mbps(50),
                .fec_overhead = fec}),
        receiver(&n.sched, &n.c2,
                 {.ssrc = 1, .feedback_flow = kFeedback, .feedback_dst = n.c1.id()}) {
    n.c2.register_flow(kMedia, [this](Packet p) { receiver.handle_packet(p); });
    n.c1.register_flow(kFeedback,
                       [this](Packet p) { sender.handle_rtcp(p.rtcp()); });
    receiver.set_frame_handler(
        [this](const DecodedFrame& f) { frames.push_back(f); });
  }

  EncodedFrame frame(uint64_t id, int bytes, bool key = false) {
    EncodedFrame f;
    f.ssrc = 1;
    f.frame_id = id;
    f.bytes = bytes;
    f.keyframe = key;
    f.width = 640;
    f.fps = 30;
    f.qp = 28;
    f.capture_time = net.sched.now();
    return f;
  }
};

TEST(RtpTest, SingleFrameDeliveredAndDecoded) {
  TwoHostNet net;
  RtpPair p(net);
  p.sender.send_frame(p.frame(0, 3000, true));
  net.sched.run_for(1_s);
  ASSERT_EQ(p.frames.size(), 1u);
  EXPECT_EQ(p.frames[0].frame_id, 0u);
  EXPECT_EQ(p.frames[0].width, 640);
  EXPECT_FALSE(p.frames[0].recovered_by_fec);
}

TEST(RtpTest, LargeFrameFragmentedAcrossPackets) {
  TwoHostNet net;
  RtpPair p(net);
  int received_packets = 0;
  net.c2.register_flow(kMedia, [&](Packet pk) {
    ++received_packets;
    p.receiver.handle_packet(pk);
  });
  p.sender.send_frame(p.frame(0, 5000, true));  // 5 packets at 1200 B MTU
  net.sched.run_for(1_s);
  EXPECT_EQ(received_packets, 5);
  ASSERT_EQ(p.frames.size(), 1u);
}

TEST(RtpTest, InOrderFrameDelivery) {
  TwoHostNet net;
  RtpPair p(net);
  for (uint64_t i = 0; i < 30; ++i) p.sender.send_frame(p.frame(i, 2000, i == 0));
  net.sched.run_for(2_s);
  ASSERT_EQ(p.frames.size(), 30u);
  for (uint64_t i = 0; i < 30; ++i) EXPECT_EQ(p.frames[i].frame_id, i);
}

TEST(RtpTest, NackRecoversLostPacket) {
  TwoHostNet net;
  RtpPair p(net);
  // Drop exactly one media packet on its way to c2.
  int count = 0;
  net.c2.register_flow(kMedia, [&](Packet pk) {
    if (++count == 5) return;  // swallow the 5th packet
    p.receiver.handle_packet(pk);
  });
  for (uint64_t i = 0; i < 10; ++i) p.sender.send_frame(p.frame(i, 2000, i == 0));
  net.sched.run_for(2_s);
  // The retransmission should have repaired the stream: all 10 frames.
  EXPECT_EQ(p.frames.size(), 10u);
  EXPECT_GT(p.receiver.nacks_sent(), 0);
}

TEST(RtpTest, FecRecoversLossWithoutRetransmission) {
  TwoHostNet net;
  RtpPair p(net, /*fec=*/0.5);
  int count = 0;
  net.c2.register_flow(kMedia, [&](Packet pk) {
    // Drop one *media* packet of frame 3; FEC packets still arrive.
    if (!pk.rtp().is_fec && pk.rtp().frame_id == 3 && pk.rtp().packet_index == 1 &&
        count++ == 0) {
      return;
    }
    p.receiver.handle_packet(pk);
  });
  for (uint64_t i = 0; i < 10; ++i) p.sender.send_frame(p.frame(i, 3000, i == 0));
  net.sched.run_for(2_s);
  EXPECT_EQ(p.frames.size(), 10u);
  bool fec_used = false;
  for (const auto& f : p.frames) fec_used |= f.recovered_by_fec;
  EXPECT_TRUE(fec_used);
  EXPECT_GT(p.sender.sent_fec_bytes(), 0);
}

TEST(RtpTest, UnrecoveredLossStallsUntilKeyframe) {
  TwoHostNet net;
  RtpPair p(net);
  // Disable retransmission by eating NACK-triggered RTX: drop all packets
  // of frame 5 permanently.
  net.c2.register_flow(kMedia, [&](Packet pk) {
    if (pk.rtp().frame_id == 5) return;
    p.receiver.handle_packet(pk);
  });
  // 30 fps-ish spacing so deadlines engage.
  for (uint64_t i = 0; i < 30; ++i) {
    net.sched.schedule(Duration::millis(33 * static_cast<int64_t>(i)), [&, i] {
      p.sender.send_frame(p.frame(i, 2000, i == 0 || i == 15));
    });
  }
  net.sched.run_for(3_s);
  // Frames 6..14 are undecodable (stall); decoding resumes at keyframe 15.
  std::vector<uint64_t> ids;
  for (const auto& f : p.frames) ids.push_back(f.frame_id);
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), 5) == ids.end());
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), 10) == ids.end());
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), 15) != ids.end());
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), 29) != ids.end());
  EXPECT_GT(p.receiver.frames_lost(), 0);
}

TEST(RtpTest, FirSentDuringLongStall) {
  TwoHostNet net;
  RtpPair p(net);
  bool blackhole = false;
  net.c2.register_flow(kMedia, [&](Packet pk) {
    if (blackhole) return;
    p.receiver.handle_packet(pk);
  });
  // Steady stream, then a long outage with traffic still flowing (dropped).
  for (uint64_t i = 0; i < 90; ++i) {
    net.sched.schedule(Duration::millis(33 * static_cast<int64_t>(i)), [&, i] {
      p.sender.send_frame(p.frame(i, 2000, i == 0));
    });
  }
  net.sched.schedule(1_s, [&] { blackhole = true; });
  net.sched.run_for(4_s);
  EXPECT_GT(p.receiver.fir_sent(), 0);
  EXPECT_TRUE(p.sender.take_keyframe_request() || p.receiver.fir_sent() > 0);
}

TEST(RtpTest, FeedbackCarriesLossFraction) {
  TwoHostNet net;
  RtpPair p(net);
  std::vector<double> losses;
  p.sender.set_feedback_handler(
      [&](const RtcpMeta& fb) { losses.push_back(fb.loss_fraction); });
  int count = 0;
  net.c2.register_flow(kMedia, [&](Packet pk) {
    if (++count % 4 == 0) return;  // drop 25%, but prevent nack repair
    p.receiver.handle_packet(pk);
  });
  for (uint64_t i = 0; i < 60; ++i) {
    net.sched.schedule(Duration::millis(16 * static_cast<int64_t>(i)),
                       [&, i] { p.sender.send_frame(p.frame(i, 2400, i == 0)); });
  }
  net.sched.run_for(2_s);
  ASSERT_FALSE(losses.empty());
  double max_loss = *std::max_element(losses.begin(), losses.end());
  EXPECT_GT(max_loss, 0.1);
}

TEST(RtpTest, PacerDropsFramesWhenOverloaded) {
  TwoHostNet net;
  RtpPair p(net);
  p.sender.set_pacing_rate(DataRate::kbps(100));  // tiny pacer budget
  for (uint64_t i = 0; i < 60; ++i) p.sender.send_frame(p.frame(i, 20000, i == 0));
  net.sched.run_for(2_s);
  EXPECT_GT(p.sender.dropped_frames(), 0);
}

TEST(RtpTest, FeedbackReportsReceiveRate) {
  TwoHostNet net;
  RtpPair p(net);
  DataRate seen;
  p.sender.set_feedback_handler([&](const RtcpMeta& fb) {
    if (fb.receive_rate > seen) seen = fb.receive_rate;
  });
  // ~1.0 Mbps: 30 frames/s x ~4.2 kB.
  for (uint64_t i = 0; i < 60; ++i) {
    net.sched.schedule(Duration::millis(33 * static_cast<int64_t>(i)),
                       [&, i] { p.sender.send_frame(p.frame(i, 4200, i == 0)); });
  }
  net.sched.run_for(3_s);
  EXPECT_GT(seen.mbps_f(), 0.5);
  EXPECT_LT(seen.mbps_f(), 2.5);
}

// --- Retransmission history ---------------------------------------------
//
// The sender answers a NACK from a direct-mapped ring of 2048 slots keyed
// by seq & 2047. These tests pin which NACKs get answered and what a
// retransmission carries.

struct RtxRig {
  TwoHostNet net;
  RtpSender sender;
  std::vector<Packet> wire;  // every packet that reached c2 on kMedia

  explicit RtxRig(PacketType type = PacketType::kRtpVideo, double fec = 0.0)
      : sender(&net.sched, &net.c1,
               {.ssrc = 7,
                .flow = kMedia,
                .dst = net.c2.id(),
                .media_type = type,
                .pacing_rate = DataRate::mbps(50),
                .fec_overhead = fec}) {
    net.c2.register_flow(kMedia, [this](Packet p) { wire.push_back(p); });
  }

  // `n` frames of `bytes` each, one per millisecond, then drain.
  void send_frames(uint64_t n, int bytes) {
    for (uint64_t i = 0; i < n; ++i) {
      net.sched.schedule(Duration::millis(static_cast<int64_t>(i)), [=, this] {
        EncodedFrame f;
        f.ssrc = 7;
        f.frame_id = i;
        f.bytes = bytes;
        f.keyframe = i % 50 == 0;
        f.spatial_layer = 2;
        f.width = 960;
        f.fps = 24.5;
        f.qp = 31;
        f.capture_time = net.sched.now();
        sender.send_frame(f);
      });
    }
    net.sched.run_for(Duration::millis(static_cast<int64_t>(n) + 500));
  }

  // NACK the given seqs and return the packets that arrive in reply.
  std::vector<Packet> nack(std::initializer_list<uint32_t> seqs) {
    RtcpMeta fb;
    fb.ssrc = 7;
    for (uint32_t s : seqs) fb.nack_seqs.push_back(s);
    const size_t before = wire.size();
    sender.handle_rtcp(fb);
    net.sched.run_for(200_ms);
    return {wire.begin() + static_cast<std::ptrdiff_t>(before), wire.end()};
  }

  uint32_t head() const { return wire.back().rtp().seq; }
};

TEST(RtpRtxTest, AnswersNackWithinWindowButNotPastIt) {
  RtxRig rig;
  rig.send_frames(2100, 1000);  // one media packet per frame
  const uint32_t head = rig.head();
  ASSERT_EQ(head, 2100u);
  auto in = rig.nack({head - 2047});
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].rtp().seq, head - 2047);
  // head - 2048 shares its slot with the later media seq `head`.
  EXPECT_TRUE(rig.nack({head - 2048}).empty());
  // The head itself is still there, and a re-NACK is answered again.
  EXPECT_EQ(rig.nack({head, head}).size(), 2u);
}

TEST(RtpRtxTest, FecOrPaddingPartnerDoesNotEvictMediaSeq) {
  // Two media packets then one FEC packet per frame: seq 1 is media and
  // its +2048 partner, seq 2049, is FEC.
  RtxRig fec(PacketType::kRtpVideo, /*fec=*/0.5);
  fec.send_frames(700, 2000);
  ASSERT_GE(fec.head(), 2049u);
  ASSERT_TRUE(fec.wire[2048].rtp().is_fec);
  ASSERT_EQ(fec.wire[2048].rtp().seq, 2049u);
  auto in = fec.nack({1});
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].rtp().seq, 1u);
  EXPECT_EQ(in[0].type, PacketType::kRtpVideo);

  // Seq 1 is media; seqs 2..2049 are padding.
  RtxRig pad;
  pad.send_frames(1, 1000);
  pad.sender.send_padding(2048 * kMtuBytes);
  pad.net.sched.run_for(1_s);
  ASSERT_EQ(pad.head(), 2049u);
  auto in_pad = pad.nack({1, 2049});  // padding is never retransmitted
  ASSERT_EQ(in_pad.size(), 1u);
  EXPECT_EQ(in_pad[0].rtp().seq, 1u);
}

TEST(RtpRtxTest, RetransmissionEqualsOriginal) {
  RtxRig rig;
  rig.send_frames(5, 3000);  // 3 packets per frame; the last is short
  ASSERT_EQ(rig.wire.size(), 15u);
  for (size_t k : {size_t{0}, size_t{4}, size_t{14}}) {
    SCOPED_TRACE(k);
    const Packet orig = rig.wire[k];
    auto in = rig.nack({orig.rtp().seq});
    ASSERT_EQ(in.size(), 1u);
    const Packet& rtx = in[0];
    EXPECT_EQ(rtx.size_bytes, orig.size_bytes);
    EXPECT_EQ(rtx.flow, orig.flow);
    EXPECT_EQ(rtx.src, orig.src);
    EXPECT_EQ(rtx.dst, orig.dst);
    EXPECT_EQ(rtx.type, orig.type);
    EXPECT_GT(rtx.id, orig.id);
    const RtpMeta& a = orig.rtp();
    const RtpMeta& b = rtx.rtp();
    EXPECT_EQ(b.ssrc, a.ssrc);
    EXPECT_EQ(b.seq, a.seq);
    EXPECT_EQ(b.frame_id, a.frame_id);
    EXPECT_EQ(b.packets_in_frame, a.packets_in_frame);
    EXPECT_EQ(b.packet_index, a.packet_index);
    EXPECT_EQ(b.keyframe, a.keyframe);
    EXPECT_EQ(b.spatial_layer, a.spatial_layer);
    EXPECT_EQ(b.is_fec, a.is_fec);
    EXPECT_EQ(b.frame_width, a.frame_width);
    EXPECT_EQ(b.fps, a.fps);
    EXPECT_EQ(b.qp, a.qp);
    EXPECT_EQ(b.capture_time, a.capture_time);
    EXPECT_GT(b.abs_send_time, a.abs_send_time);
    EXPECT_EQ(b.abs_send_time, rtx.created_at);
  }
  EXPECT_EQ(rig.wire[0].rtp().keyframe, true);
  EXPECT_EQ(rig.wire[14].rtp().packet_index, 2);
  EXPECT_LT(rig.wire[14].size_bytes, rig.wire[13].size_bytes);
}

TEST(RtpRtxTest, AudioSenderAnswersNoNack) {
  RtxRig rig(PacketType::kRtpAudio);
  rig.send_frames(10, 160);
  ASSERT_EQ(rig.wire.size(), 10u);
  EXPECT_TRUE(rig.nack({1, 5, 10}).empty());
}

TEST(RtpRtxTest, ShutdownSenderAnswersNoNack) {
  RtxRig rig;
  rig.send_frames(10, 1000);
  ASSERT_EQ(rig.nack({3}).size(), 1u);
  rig.sender.shutdown();
  EXPECT_TRUE(rig.nack({3, 10}).empty());
}

}  // namespace
}  // namespace vca
