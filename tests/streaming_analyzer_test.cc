// Streaming analyzer end-to-end: equivalence with the offline pipeline
// on a real captured trace, and byte-identical reports whether packets
// arrive through the live TraceRecorder sink or a pcap replay.
#include "streaming/analyzer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "harness/network.h"
#include "harness/scenario.h"
#include "vca/call.h"

namespace vca {
namespace {

StreamingConfig replay_config() {
  StreamingConfig cfg;
  cfg.promote_packets = 1;  // curated capture: admit every flow
  cfg.idle_timeout_ns = 3'600'000'000'000;  // no idle eviction mid-test
  return cfg;
}

TEST(StreamingAnalyzerTest, MatchesOfflinePipelineOnCapturedTrace) {
  TwoPartyConfig cfg;
  cfg.profile = "meet";
  cfg.seed = 11;
  cfg.duration = Duration::seconds(60);
  cfg.capture_traces = true;
  TwoPartyResult r = run_two_party(cfg);
  ASSERT_FALSE(r.c1_down_records.empty());

  TraceAnalysis offline = analyze_records(r.c1_down_records, 20.0);

  StreamingAnalyzer streaming(replay_config());
  for (const PacketRecord& rec : r.c1_down_records) {
    if (rec.ts_ns >= 20'000'000'000) streaming.on_record(rec);
  }
  streaming.finish();

  ASSERT_EQ(streaming.reports().size(), offline.streams.size());
  for (const StreamReport& off : offline.streams) {
    const StreamReport* on = nullptr;
    for (const StreamReport& s : streaming.reports()) {
      if (s.key == off.key) on = &s;
    }
    ASSERT_NE(on, nullptr) << off.describe();
    // Same packets through the same incremental core: every field is
    // bit-equal, including the median and the extended estimates.
    EXPECT_EQ(on->packets, off.packets);
    EXPECT_EQ(on->ip_bytes, off.ip_bytes);
    EXPECT_EQ(on->frames, off.frames);
    EXPECT_EQ(on->kind, off.kind);
    EXPECT_DOUBLE_EQ(on->median_fps, off.median_fps);
    EXPECT_DOUBLE_EQ(on->mean_rate_mbps, off.mean_rate_mbps);
    EXPECT_DOUBLE_EQ(on->mean_frame_bytes, off.mean_frame_bytes);
    EXPECT_EQ(on->est_width, off.est_width);
    EXPECT_EQ(on->freeze_events, off.freeze_events);
    EXPECT_DOUBLE_EQ(on->est_freeze_ratio, off.est_freeze_ratio);
    EXPECT_DOUBLE_EQ(on->qoe, off.qoe);
  }

  // The primary video stream carries a real signal end to end.
  const StreamReport* video = offline.primary_video();
  ASSERT_NE(video, nullptr);
  EXPECT_GT(video->median_fps, 0.0);
  EXPECT_GT(video->est_width, 0);
  EXPECT_GT(video->qoe, 1.0);
}

// One deterministic simulated call, observed two ways: (a) a live
// TraceRecorder sink feeding the analyzer packet by packet with nothing
// accumulating, (b) the classic capture -> pcap file -> chunked replay.
// Same input, so the analyzer must produce byte-identical reports.
TEST(StreamingAnalyzerTest, LiveTapAndPcapReplayAreByteIdentical) {
  auto run_call = [](StreamingAnalyzer* live_sink_target,
                     std::vector<PacketRecord>* captured) {
    Network net;
    auto sfu_ports = net.add_host("sfu", DataRate::gbps(2), DataRate::gbps(2),
                                  Duration::millis(8), 4 << 20);
    auto c1 = net.add_host("c1", DataRate::gbps(1), DataRate::gbps(1),
                           Duration::millis(2), 1 << 20);
    auto c2 = net.add_host("c2", DataRate::gbps(1), DataRate::gbps(1),
                           Duration::millis(2), 1 << 20);
    Call::Config ccfg;
    ccfg.profile = vca_profile("teams");
    ccfg.seed = 23;
    Call call(&net.sched(), sfu_ports.host, ccfg);
    call.add_client(c1.host);
    call.add_client(c2.host);
    TraceRecorder* rec = net.record(c1.down);
    if (live_sink_target != nullptr) {
      rec->set_sink(live_sink_target->sink());
    }
    call.start();
    net.sched().run_until(TimePoint::zero() + Duration::seconds(40));
    call.stop();
    net.sched().run_for(Duration::millis(10));
    if (live_sink_target != nullptr) {
      EXPECT_EQ(rec->size(), 0u);  // live feed: nothing accumulated
    }
    if (captured != nullptr) *captured = rec->take_records();
  };

  StreamingAnalyzer live(replay_config());
  run_call(&live, nullptr);
  live.finish();

  std::vector<PacketRecord> records;
  run_call(nullptr, &records);
  ASSERT_FALSE(records.empty());
  std::string path = testing::TempDir() + "/stream_replay_test.pcap";
  ASSERT_TRUE(write_pcap_file(path, records));
  StreamingAnalyzer replay(replay_config());
  ASSERT_TRUE(replay.replay_pcap(path));
  replay.finish();
  std::remove(path.c_str());

  ASSERT_GT(live.reports().size(), 0u);
  EXPECT_EQ(live.reports(), replay.reports());
  EXPECT_EQ(live.windows(), replay.windows());
  EXPECT_EQ(live.stats().packets, replay.stats().packets);
}

TEST(StreamingAnalyzerTest, WindowReportsTrackSteadyStateFps) {
  TwoPartyConfig cfg;
  cfg.profile = "meet";
  cfg.seed = 3;
  cfg.duration = Duration::seconds(50);
  cfg.capture_traces = true;
  TwoPartyResult r = run_two_party(cfg);

  StreamingAnalyzer an(replay_config());
  for (const PacketRecord& rec : r.c1_down_records) an.on_record(rec);
  an.finish();

  // Identify the video flow from the final reports, then check its
  // steady-state windows carry a plausible per-second frame rate.
  const StreamReport* video = nullptr;
  for (const StreamReport& s : an.reports()) {
    if (s.kind == StreamKind::kVideo &&
        (video == nullptr || s.ip_bytes > video->ip_bytes)) {
      video = &s;
    }
  }
  ASSERT_NE(video, nullptr);
  // Steady state excludes the warm-up and the partial tail window at the
  // moment the call tears down.
  int steady = 0;
  for (const WindowReport& w : an.windows()) {
    if (w.key == video->key && w.window_start_ns >= 20'000'000'000 &&
        w.window_start_ns < 49'000'000'000) {
      EXPECT_GE(w.fps, 10.0) << "window at " << w.window_start_ns;
      EXPECT_LE(w.fps, 60.0);
      EXPECT_GT(w.rate_mbps, 0.0);
      ++steady;
    }
  }
  EXPECT_GT(steady, 20);
}

}  // namespace
}  // namespace vca
