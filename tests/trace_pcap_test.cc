#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/scheduler.h"
#include "net/link.h"
#include "trace/pcap.h"
#include "trace/recorder.h"

namespace vca {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

PacketRecord make_record(int64_t ts_ns, uint32_t wire,
                         std::vector<uint8_t> bytes) {
  PacketRecord r;
  r.ts_ns = ts_ns;
  r.wire_bytes = wire;
  r.bytes = std::move(bytes);
  return r;
}

// ---------------------------------------------------------------------------
// Golden file header: the first 24 bytes must be a libpcap global header
// any stock tool accepts (nanosecond magic, version 2.4, LINKTYPE_ETHERNET).
// ---------------------------------------------------------------------------

TEST(PcapTest, GoldenGlobalHeader) {
  std::ostringstream out;
  PcapWriter w(out, /*snaplen=*/96);
  std::string hdr = out.str();
  ASSERT_EQ(hdr.size(), 24u);
  const auto* b = reinterpret_cast<const uint8_t*>(hdr.data());
  // Magic 0xa1b23c4d, little-endian on the wire.
  EXPECT_EQ(b[0], 0x4d);
  EXPECT_EQ(b[1], 0x3c);
  EXPECT_EQ(b[2], 0xb2);
  EXPECT_EQ(b[3], 0xa1);
  // Version 2.4.
  EXPECT_EQ(b[4] | (b[5] << 8), kPcapVersionMajor);
  EXPECT_EQ(b[6] | (b[7] << 8), kPcapVersionMinor);
  // thiszone, sigfigs == 0.
  for (int i = 8; i < 16; ++i) EXPECT_EQ(b[i], 0) << "offset " << i;
  // snaplen.
  EXPECT_EQ(static_cast<uint32_t>(b[16]), 96u);
  EXPECT_EQ(b[17], 0);
  // LINKTYPE_ETHERNET = 1.
  EXPECT_EQ(static_cast<uint32_t>(b[20]), kPcapLinkEthernet);
  EXPECT_EQ(b[21], 0);
}

TEST(PcapTest, RecordHeaderSplitsNanoseconds) {
  std::ostringstream out;
  PcapWriter w(out, 96);
  w.write(make_record(3'000'000'123, 64, std::vector<uint8_t>(64, 0xab)));
  std::string s = out.str();
  ASSERT_EQ(s.size(), 24u + 16u + 64u);
  const auto* b = reinterpret_cast<const uint8_t*>(s.data()) + 24;
  uint32_t sec = b[0] | (b[1] << 8) | (b[2] << 16) |
                 (static_cast<uint32_t>(b[3]) << 24);
  uint32_t nsec = b[4] | (b[5] << 8) | (b[6] << 16) |
                  (static_cast<uint32_t>(b[7]) << 24);
  uint32_t incl = b[8] | (b[9] << 8) | (b[10] << 16) |
                  (static_cast<uint32_t>(b[11]) << 24);
  uint32_t orig = b[12] | (b[13] << 8) | (b[14] << 16) |
                  (static_cast<uint32_t>(b[15]) << 24);
  EXPECT_EQ(sec, 3u);
  EXPECT_EQ(nsec, 123u);
  EXPECT_EQ(incl, 64u);
  EXPECT_EQ(orig, 64u);
}

// ---------------------------------------------------------------------------
// Round trip: write -> read yields byte-identical records.
// ---------------------------------------------------------------------------

TEST(PcapTest, RoundTripByteFidelity) {
  std::vector<PacketRecord> in;
  for (int i = 0; i < 50; ++i) {
    std::vector<uint8_t> bytes;
    for (int j = 0; j < 14 + i; ++j) {
      bytes.push_back(static_cast<uint8_t>((i * 31 + j * 7) & 0xff));
    }
    in.push_back(make_record(static_cast<int64_t>(i) * 1'000'000'007,
                             static_cast<uint32_t>(200 + i),
                             std::move(bytes)));
  }
  std::string path = temp_path("roundtrip.pcap");
  ASSERT_TRUE(write_pcap_file(path, in, /*snaplen=*/96));

  bool ok = false;
  std::vector<PacketRecord> back = read_pcap_file(path, &ok);
  ASSERT_TRUE(ok);
  ASSERT_EQ(back.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(back[i], in[i]) << "record " << i;
  }
  std::remove(path.c_str());
}

// Little-endian pcap bytes built by hand, so the reader tests can feed
// it headers and length fields the writer would never produce.
struct RawPcap {
  std::string bytes;
  void le16(uint16_t v) {
    bytes.push_back(static_cast<char>(v & 0xff));
    bytes.push_back(static_cast<char>((v >> 8) & 0xff));
  }
  void le32(uint32_t v) {
    le16(static_cast<uint16_t>(v & 0xffff));
    le16(static_cast<uint16_t>(v >> 16));
  }
  void global_header(uint32_t magic) {
    le32(magic);
    le16(2);
    le16(4);
    le32(0);
    le32(0);
    le32(65535);
    le32(kPcapLinkEthernet);
  }
  void record_header(uint32_t sec, uint32_t frac, uint32_t incl,
                     uint32_t orig) {
    le32(sec);
    le32(frac);
    le32(incl);
    le32(orig);
  }
  std::string write(const char* name) const {
    std::string path = temp_path(name);
    std::ofstream(path, std::ios::binary) << bytes;
    return path;
  }
};

TEST(PcapTest, ReaderAcceptsMicrosecondMagic) {
  // A classic microsecond-resolution capture.
  RawPcap raw;
  raw.global_header(kPcapMagicMicros);
  raw.record_header(7, 500, 4, 60);  // ts 7 s + 500 us, 4 of 60 bytes
  raw.bytes += "\x01\x02\x03\x04";
  std::string path = raw.write("micros.pcap");

  PcapFileReader r(path);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.nanosecond());
  PacketRecord rec;
  ASSERT_TRUE(r.next(&rec));
  EXPECT_EQ(rec.ts_ns, 7'000'000'000 + 500'000);
  EXPECT_EQ(rec.wire_bytes, 60u);
  ASSERT_EQ(rec.bytes.size(), 4u);
  EXPECT_FALSE(r.next(&rec));
  std::remove(path.c_str());
}

TEST(PcapTest, ReaderRejectsForeignMagic) {
  RawPcap raw;
  raw.bytes.assign(24, '\x42');
  std::string path = raw.write("foreign.pcap");
  PcapFileReader r(path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

// A record whose claimed capture length exceeds kMaxRecordBytes marks the
// file corrupt: next() refuses it (no allocation of the claimed size) and
// the reader stays failed, even though a valid record came before it.
TEST(PcapTest, ReaderRejectsOversizedRecordLength) {
  for (uint32_t incl :
       {PcapFileReader::kMaxRecordBytes + 1, uint32_t{0xFFFFFFFF}}) {
    SCOPED_TRACE(incl);
    RawPcap raw;
    raw.global_header(kPcapMagicNanos);
    raw.record_header(1, 0, 2, 2);
    raw.bytes += "\xaa\xbb";
    raw.record_header(2, 0, incl, 1500);
    raw.bytes += std::string(64, '\0');
    std::string path = raw.write("oversized.pcap");

    PcapFileReader r(path);
    ASSERT_TRUE(r.ok());
    PacketRecord rec;
    ASSERT_TRUE(r.next(&rec));
    EXPECT_EQ(rec.bytes.size(), 2u);
    EXPECT_FALSE(r.next(&rec));
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.next(&rec));
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Frame synthesis.
// ---------------------------------------------------------------------------

Packet video_packet() {
  Packet p;
  p.id = 77;
  p.flow = 1000;
  p.src = 3;
  p.dst = 1;
  p.size_bytes = 1200;
  p.type = PacketType::kRtpVideo;
  RtpMeta m;
  m.ssrc = 42;
  m.seq = 70000;  // exceeds 16 bits to check truncation
  m.packets_in_frame = 2;
  m.packet_index = 1;
  m.capture_time = TimePoint::zero() + Duration::millis(500);
  p.meta = m;
  return p;
}

TEST(SynthesizeFrameTest, VideoHeadersAndChecksum) {
  Packet p = video_packet();
  PacketRecord rec =
      synthesize_frame(p, TimePoint::zero() + Duration::millis(501), 96);
  EXPECT_EQ(rec.ts_ns, Duration::millis(501).ns());
  EXPECT_EQ(rec.wire_bytes, 1200u + 14u);  // Ethernet framing on top of IP
  ASSERT_EQ(rec.bytes.size(), 14u + 20u + 8u + 12u);  // headers only @ 96 snap

  const uint8_t* b = rec.bytes.data();
  // Ethernet: dst MAC from dst node, ethertype IPv4.
  EXPECT_EQ(b[0], 0x02);
  EXPECT_EQ(b[5], 0x01);
  EXPECT_EQ(b[11], 0x03);
  EXPECT_EQ((b[12] << 8) | b[13], 0x0800);

  const uint8_t* ip = b + 14;
  EXPECT_EQ(ip[0], 0x45);
  EXPECT_EQ((ip[2] << 8) | ip[3], 1200);  // IP total length == size_bytes
  EXPECT_EQ(ip[9], 17);                   // UDP
  // Checksum verifies: summing the header including the stored checksum
  // must give 0xffff.
  uint32_t sum = 0;
  for (int i = 0; i < 20; i += 2) sum += (ip[i] << 8) | ip[i + 1];
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  EXPECT_EQ(sum, 0xffffu);
  // 10.0.0.3 -> 10.0.0.1.
  EXPECT_EQ(ip[12], 10);
  EXPECT_EQ(ip[15], 3);
  EXPECT_EQ(ip[16], 10);
  EXPECT_EQ(ip[19], 1);

  const uint8_t* udp = ip + 20;
  EXPECT_EQ((udp[0] << 8) | udp[1], 1024 + 1000 % 60000);
  EXPECT_EQ((udp[4] << 8) | udp[5], 1200 - 20);  // UDP length

  const uint8_t* rtp = udp + 8;
  EXPECT_EQ(rtp[0], 0x80);
  EXPECT_EQ(rtp[1] & 0x7f, 96);   // video PT
  EXPECT_EQ(rtp[1] & 0x80, 0x80); // marker: last packet of the frame
  EXPECT_EQ((rtp[2] << 8) | rtp[3], 70000 & 0xffff);
  uint32_t ts = (static_cast<uint32_t>(rtp[4]) << 24) | (rtp[5] << 16) |
                (rtp[6] << 8) | rtp[7];
  EXPECT_EQ(ts, 45000u);  // 0.5 s at 90 kHz
  uint32_t ssrc = (static_cast<uint32_t>(rtp[8]) << 24) | (rtp[9] << 16) |
                  (rtp[10] << 8) | rtp[11];
  EXPECT_EQ(ssrc, 42u);
}

TEST(SynthesizeFrameTest, SnaplenTruncatesButKeepsWireLength) {
  Packet p = video_packet();
  PacketRecord rec = synthesize_frame(p, TimePoint::zero(), 40);
  EXPECT_EQ(rec.wire_bytes, 1214u);
  EXPECT_EQ(rec.bytes.size(), 40u);
}

TEST(SynthesizeFrameTest, KeepaliveIsStunBindingRequest) {
  Packet p;
  p.id = 5;
  p.flow = 1019;
  p.src = 2;
  p.dst = 1;
  p.size_bytes = kKeepaliveBytes;
  p.type = PacketType::kKeepalive;
  PacketRecord rec = synthesize_frame(p, TimePoint::zero(), 96);
  const uint8_t* stun = rec.bytes.data() + 14 + 20 + 8;
  EXPECT_EQ((stun[0] << 8) | stun[1], 0x0001);
  uint32_t cookie = (static_cast<uint32_t>(stun[4]) << 24) |
                    (stun[5] << 16) | (stun[6] << 8) | stun[7];
  EXPECT_EQ(cookie, 0x2112a442u);
}

TEST(SynthesizeFrameTest, TcpCarriesSeqAckFlags) {
  Packet p;
  p.id = 9;
  p.flow = 9000;
  p.src = 4;
  p.dst = 5;
  p.size_bytes = 1488;
  p.type = PacketType::kTcpData;
  TcpMeta m;
  m.seq = 123456;
  m.ack = 777;
  m.payload_bytes = 1448;
  p.meta = m;
  PacketRecord rec = synthesize_frame(p, TimePoint::zero(), 96);
  const uint8_t* ip = rec.bytes.data() + 14;
  EXPECT_EQ(ip[9], 6);  // TCP
  const uint8_t* tcp = ip + 20;
  uint32_t seq = (static_cast<uint32_t>(tcp[4]) << 24) | (tcp[5] << 16) |
                 (tcp[6] << 8) | tcp[7];
  EXPECT_EQ(seq, 123456u);
  EXPECT_EQ(tcp[13] & 0x10, 0x10);  // ACK flag set (ack > 0)
}

// ---------------------------------------------------------------------------
// Tap lifetime: the recorder's tap must be detachable before the
// recorder dies, and an empty tap must be a no-op.
// ---------------------------------------------------------------------------

TEST(TraceRecorderTest, RecordsFromLinkTapAndDetachesSafely) {
  EventScheduler sched;
  Link::Config cfg;
  cfg.rate = DataRate::mbps(10);
  cfg.propagation = Duration::zero();
  Link link(&sched, "l", cfg);

  struct NullSink : PacketSink {
    void deliver(Packet) override {}
  } sink;
  link.set_sink(&sink);

  {
    TraceRecorder rec(96);
    link.set_tap(rec.tap());
    link.deliver(video_packet());
    sched.run_all();
    ASSERT_EQ(rec.size(), 1u);
    // Contract from trace/recorder.h: detach before the recorder dies.
    link.set_tap({});
  }
  // The recorder is gone; traffic must not touch it.
  link.deliver(video_packet());
  sched.run_all();
}

}  // namespace
}  // namespace vca
