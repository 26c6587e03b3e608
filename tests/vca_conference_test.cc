// Cascaded SFU fleet tests: cross-region delivery, churn teardown on
// every exit path (incl. during an SFU blackout), region-scoped relay
// faults, and the relay-at-most-once property.
#include <gtest/gtest.h>

#include "harness/network.h"
#include "harness/scenario.h"
#include "net/faults.h"
#include "vca/conference.h"

namespace vca {
namespace {

using namespace vca::literals;

struct ConfRig {
  Network net;
  std::vector<Network::Region*> regions;
  std::vector<Network::HostPorts> sfu_ports;
  std::vector<Network::HostPorts> client_ports;
  std::unique_ptr<Conference> conf;
  std::unique_ptr<ShardRunner> runner;

  // `region_of[i]` pins client i's region; empty = round-robin.
  ConfRig(const std::string& profile, int n_regions, int n_clients,
          std::vector<int> region_of = {}, ViewMode mode = ViewMode::kGallery,
          uint64_t seed = 1) {
    Conference::Config cfg;
    cfg.profile = vca_profile(profile);
    cfg.mode = mode;
    cfg.seed = seed;
    conf = std::make_unique<Conference>(&net.sched(), cfg);
    for (int r = 0; r < n_regions; ++r) {
      regions.push_back(net.add_region("r" + std::to_string(r),
                                       DataRate::gbps(2),
                                       Duration::millis(20)));
      sfu_ports.push_back(net.add_host_in_region(
          regions.back(), "sfu-r" + std::to_string(r), DataRate::gbps(4),
          DataRate::gbps(4), Duration::millis(1), 8 << 20));
      conf->add_region(sfu_ports.back().host, regions.back()->sched);
    }
    for (int i = 0; i < n_clients; ++i) {
      int region = region_of.empty() ? i % n_regions
                                     : region_of[static_cast<size_t>(i)];
      client_ports.push_back(net.add_host_in_region(
          regions[static_cast<size_t>(region)], "c" + std::to_string(i + 1),
          DataRate::mbps(10), DataRate::mbps(25), Duration::millis(2),
          1 << 20));
      conf->add_client(client_ports.back().host, region);
    }
    // One runner for the whole test, as run_conference drives it:
    // deferred cross-region keyframe requests land at each barrier.
    runner = std::make_unique<ShardRunner>(
        &net.sched(), net.shard_scheds(), &net.shard_bus(),
        net.shard_lookahead(), ShardRunner::Options{});
    runner->set_barrier_hook([this] { conf->drain_deferred_keyframes(); });
  }

  VcaClient* cl(int i) { return conf->client(static_cast<size_t>(i)); }
  void run_to(double sec) {
    runner->run_until(TimePoint::zero() +
                      Duration::millis(static_cast<int64_t>(sec * 1000)));
  }
  const VcaClient::Feed* feed_from(VcaClient* viewer, VcaClient* pub) {
    for (const auto& f : viewer->feeds()) {
      if (f->publisher == pub->host()->id()) return f.get();
    }
    return nullptr;
  }
  std::vector<std::string> violations() {
    std::vector<std::string> out;
    conf->append_invariant_violations(&out);
    return out;
  }
};

TEST(ConferenceTest, CascadedDeliveryAcrossRegions) {
  ConfRig rig("webex", 2, 4);
  rig.conf->start();
  rig.run_to(25);

  // Every viewer decodes every other participant's video, local and
  // cross-region alike.
  for (int v = 0; v < 4; ++v) {
    EXPECT_EQ(rig.conf->subscription_count_for(rig.cl(v)), 3);
    for (int p = 0; p < 4; ++p) {
      if (p == v) continue;
      const auto* feed = rig.feed_from(rig.cl(v), rig.cl(p));
      ASSERT_NE(feed, nullptr) << "viewer " << v << " publisher " << p;
      EXPECT_GT(feed->receiver->frames_decoded(), 100)
          << "viewer " << v << " publisher " << p;
    }
  }
  // Each publisher is relayed to exactly the one peer region that views
  // it: 4 publishers x 1 peer region.
  EXPECT_EQ(rig.conf->relay_count(), 4);
  EXPECT_TRUE(rig.violations().empty());
  rig.conf->stop();
  EXPECT_EQ(rig.net.enforce_invariants(), 0);
}

TEST(ConferenceTest, LeaveTearsDownEverySubscriptionAndRelay) {
  ConfRig rig("webex", 2, 5);
  rig.conf->start();
  rig.run_to(15);
  ASSERT_EQ(rig.conf->active_count(), 5);

  // c1 (region 1) leaves mid-call while its streams are mid-relay into
  // region 0.
  rig.conf->leave(rig.cl(1));
  rig.run_to(30);

  EXPECT_EQ(rig.conf->active_count(), 4);
  EXPECT_FALSE(rig.conf->is_active(rig.cl(1)));
  // Nobody forwards to the departed client, and no stale subscription
  // survives anywhere in the fleet.
  EXPECT_EQ(rig.conf->forwards_to_departed(), 0);
  EXPECT_TRUE(rig.violations().empty());
  // Remaining viewers dropped exactly the departed feed.
  for (int v = 0; v < 5; ++v) {
    if (v == 1) continue;
    EXPECT_EQ(rig.conf->subscription_count_for(rig.cl(v)), 3);
    EXPECT_EQ(rig.feed_from(rig.cl(v), rig.cl(1)), nullptr);
  }
  // Relays of the leaver are gone; each remaining publisher still has
  // one peer region viewing it.
  EXPECT_EQ(rig.conf->relay_count(), 4);
  rig.conf->stop();
  EXPECT_EQ(rig.net.enforce_invariants(), 0);
}

// Satellite regression: a client that leaves (or times out) *during an
// SFU blackout* must still have its subscriptions, legs and relays torn
// down on every SFU — the stale-viewer leak this PR fixes left dangling
// flow handlers and kept forwarding to the departed client after the
// blackout lifted.
TEST(ConferenceTest, ChurnDuringSfuBlackoutLeavesNoStaleState) {
  ConfRig rig("webex", 2, 6);
  rig.conf->start();
  rig.run_to(12);

  // Region 0's SFU goes dark.
  rig.conf->sfu(0)->set_online(false);
  rig.run_to(14);
  // During the blackout: a region-0 client and a region-1 client (whose
  // streams are mid-relay into the blacked-out region) both leave.
  rig.conf->leave(rig.cl(0));
  rig.conf->leave(rig.cl(3));
  rig.run_to(18);
  rig.conf->sfu(0)->set_online(true);
  rig.run_to(35);

  EXPECT_EQ(rig.conf->active_count(), 4);
  EXPECT_EQ(rig.conf->forwards_to_departed(), 0);
  EXPECT_TRUE(rig.violations().empty());
  // Survivors resumed decoding after the restore.
  const auto* feed = rig.feed_from(rig.cl(2), rig.cl(4));
  ASSERT_NE(feed, nullptr);
  int64_t at_restore = feed->receiver->frames_decoded();
  rig.run_to(45);
  EXPECT_GT(feed->receiver->frames_decoded(), at_restore + 50);
  rig.conf->stop();
  EXPECT_EQ(rig.net.enforce_invariants(), 0);
}

// Inter-SFU loss/outage must degrade only cross-region feeds: local
// fanout inside each region keeps flowing.
TEST(ConferenceTest, RelayOutageIsRegionScoped) {
  ConfRig rig("webex", 2, 6);
  rig.conf->start();
  rig.run_to(20);

  // c0 (region 0) watches c2 (region 0, local) and c1 (region 1, via the
  // relay).
  const auto* local_feed = rig.feed_from(rig.cl(0), rig.cl(2));
  const auto* remote_feed = rig.feed_from(rig.cl(0), rig.cl(1));
  ASSERT_NE(local_feed, nullptr);
  ASSERT_NE(remote_feed, nullptr);

  FaultPlan plan;
  plan.add_outage(rig.regions[1]->relay_up, TimePoint::zero() + 20_s, 10_s);
  plan.add_outage(rig.regions[1]->relay_down, TimePoint::zero() + 20_s, 10_s);
  plan.schedule(&rig.net.sched());

  rig.run_to(22);  // let in-flight packets drain
  int64_t local_at_22 = local_feed->receiver->frames_decoded();
  int64_t remote_at_22 = remote_feed->receiver->frames_decoded();
  rig.run_to(29);
  // Local decode marches on through the relay outage...
  EXPECT_GT(local_feed->receiver->frames_decoded(), local_at_22 + 100);
  // ...while the cross-region feed is starved (nothing traverses the
  // dark relay; allow a handful of frames for queued stragglers).
  EXPECT_LT(remote_feed->receiver->frames_decoded(), remote_at_22 + 10);

  // Service heals region-wide once the relay returns.
  rig.run_to(32);
  int64_t remote_at_32 = remote_feed->receiver->frames_decoded();
  rig.run_to(45);
  EXPECT_GT(remote_feed->receiver->frames_decoded(), remote_at_32 + 100);
  EXPECT_TRUE(rig.violations().empty());
  rig.conf->stop();
  EXPECT_EQ(rig.net.enforce_invariants(), 0);
}

// The relay-at-most-once property, measured: region 0's publishers cross
// the region-0 relay uplink once each, so quadrupling the *viewers* in
// region 1 must not grow the relay bytes (only SFU-1's local fanout).
TEST(ConferenceTest, RelayBytesIndependentOfRemoteFanout) {
  auto relay_media_bytes = [](int remote_viewers, int* local_fanout) {
    // Clients 0..2 publish from region 0; the rest view from region 1.
    std::vector<int> region_of(static_cast<size_t>(3 + remote_viewers), 0);
    for (int i = 3; i < 3 + remote_viewers; ++i) {
      region_of[static_cast<size_t>(i)] = 1;
    }
    ConfRig rig("webex", 2, 3 + remote_viewers, region_of);
    // Region-0 publishers' relay flows toward region 1 (media direction
    // only; their RTCP returns on the other region's relay uplink).
    FlowCapture* cap = rig.net.capture(rig.regions[0]->relay_up);
    const FlowId streams =
        static_cast<FlowId>(rig.conf->profile().layers.size()) + 1;
    cap->add_flow_range(1000 + 10'000'000,
                        1000 + 10'000'000 + 3 * 2 * streams);
    rig.conf->start();
    rig.run_to(20);
    *local_fanout = rig.conf->sfu(1)->subscription_count();
    rig.conf->stop();
    EXPECT_EQ(rig.net.enforce_invariants(), 0);
    return cap->total_bytes();
  };

  int fanout_one = 0, fanout_four = 0;
  int64_t bytes_one = relay_media_bytes(1, &fanout_one);
  int64_t bytes_four = relay_media_bytes(4, &fanout_four);

  ASSERT_GT(bytes_one, 0);
  // 4x the remote viewers => 4x the remote SFU's local fanout...
  EXPECT_GE(fanout_four, 3 * fanout_one);
  // ...but the inter-SFU link still carries each ladder once. (Budget
  // splits differ slightly between the runs; 40% headroom is far below
  // the 4x a per-viewer relay would cost.)
  EXPECT_LT(static_cast<double>(bytes_four),
            static_cast<double>(bytes_one) * 1.4);
}

// No transit: media relayed between regions 1 and 2 must never ride
// region 0's relay links (loops/duplication are structurally excluded).
TEST(ConferenceTest, RelayTrafficNeverTransitsThirdRegion) {
  ConfRig rig("webex", 3, 6);
  // Region 0's relay links, filtered to *other* regions' relay flow
  // ranges: publishers 1,4 (region 1) and 2,5 (region 2).
  FlowCapture* up_cap = rig.net.capture(rig.regions[0]->relay_up);
  FlowCapture* down_cap = rig.net.capture(rig.regions[0]->relay_down);
  const FlowId streams =
      static_cast<FlowId>(rig.conf->profile().layers.size()) + 1;
  auto relay_base = [&](int pub_idx, int viewer_region) {
    return static_cast<FlowId>(1000 + 10'000'000 +
                               (pub_idx * 3 + viewer_region) * streams);
  };
  for (int pub : {1, 2, 4, 5}) {
    int home = pub % 3;
    for (int vr = 0; vr < 3; ++vr) {
      if (vr == home || vr == 0) continue;  // region-0-bound legs do belong
      up_cap->add_flow_range(relay_base(pub, vr),
                             relay_base(pub, vr) + streams - 1);
      down_cap->add_flow_range(relay_base(pub, vr),
                               relay_base(pub, vr) + streams - 1);
    }
  }
  rig.conf->start();
  rig.run_to(15);
  EXPECT_EQ(up_cap->total_bytes(), 0);
  EXPECT_EQ(down_cap->total_bytes(), 0);
  // Sanity: the fleet is actually relaying (every publisher to both peer
  // regions).
  EXPECT_EQ(rig.conf->relay_count(), 12);
  rig.conf->stop();
  EXPECT_EQ(rig.net.enforce_invariants(), 0);
}

// Late joiners page into existing viewers' galleries and publish both
// ways; leavers free tiles that backfill from the roster.
TEST(ConferenceTest, JoinLeaveChurnReconcilesSubscriptions) {
  ConfRig rig("teams", 2, 6);  // Teams: 2x2 grid, tiles scarcer than members
  rig.conf->start();
  rig.run_to(10);
  // Teams gallery page is 4: each viewer sees 4 of the 5 others.
  EXPECT_EQ(rig.conf->subscription_count_for(rig.cl(5)), 4);
  EXPECT_EQ(rig.feed_from(rig.cl(5), rig.cl(4)), nullptr);  // paged out

  rig.conf->leave(rig.cl(0));
  rig.run_to(11);
  // c4 backfills the freed tile.
  EXPECT_EQ(rig.conf->subscription_count_for(rig.cl(5)), 4);
  EXPECT_NE(rig.feed_from(rig.cl(5), rig.cl(4)), nullptr);
  EXPECT_EQ(rig.conf->forwards_to_departed(), 0);
  EXPECT_TRUE(rig.violations().empty());
  rig.conf->stop();
  EXPECT_EQ(rig.net.enforce_invariants(), 0);
}

// The tentpole acceptance case, shrunk to test duration: a 200-party,
// 4-region cascaded conference with join/leave churn runs to completion
// with zero invariant violations.
TEST(ConferenceTest, TwoHundredPartyFourRegionRunsClean) {
  ConferenceConfig cfg;
  cfg.profile = "webex";
  cfg.participants = 200;
  cfg.regions = 4;
  cfg.duration = 12_s;
  cfg.measure_from = 6_s;
  cfg.late_joiners = 4;
  cfg.early_leavers = 4;
  cfg.churn_start = 4_s;
  cfg.churn_step = Duration::millis(500);
  ConferenceResult res = run_conference(cfg);

  EXPECT_EQ(res.active_at_end, 196);
  EXPECT_EQ(res.forwards_to_departed, 0);
  EXPECT_TRUE(res.invariant_violations.empty())
      << res.invariant_violations.front();
  EXPECT_GT(res.mean_client_down_mbps, 0.1);
  EXPECT_EQ(res.regions.size(), 4u);
  for (const auto& r : res.regions) {
    EXPECT_GT(r.forwarded_packets, 0);
    EXPECT_GT(r.peak_subscriptions, 0);
    EXPECT_GT(r.relay_out_streams, 0);
  }
}

// Chang et al.'s qualitative scaling law: per-client receive bitrate is
// non-increasing in conference size (the downlink budget splits across
// more, smaller tiles until the visible page caps it).
// Chang et al.'s gallery scaling: growing the conference shrinks every
// tile, which lowers the per-feed receive bitrate (4 parties watch
// 640-wide tiles, 12 parties 320-wide ones). The *total* downlink may
// still grow with the number of visible tiles, so the monotone claim is
// per-feed, not per-client-total.
TEST(ConferenceTest, PerFeedBitrateNonIncreasingInSize) {
  auto per_feed_down = [](int participants) {
    ConferenceConfig cfg;
    cfg.profile = "webex";
    cfg.participants = participants;
    cfg.regions = 2;
    cfg.duration = 30_s;
    cfg.measure_from = 15_s;
    ConferenceResult res = run_conference(cfg);
    EXPECT_TRUE(res.invariant_violations.empty());
    int tiles = visible_tiles(VcaKind::kWebex, participants, ViewMode::kGallery);
    return res.mean_client_down_mbps / tiles;
  };
  double at4 = per_feed_down(4);
  double at12 = per_feed_down(12);
  ASSERT_GT(at4, 0.2);
  // The 320-wide tile should cost well under half the 640-wide one.
  EXPECT_LE(at12, at4 * 0.6);
}

}  // namespace
}  // namespace vca
