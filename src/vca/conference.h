// City-scale multiparty conferencing on a cascaded SFU fleet.
//
// Call (call.h) wires N clients to ONE SfuServer — the paper's §6
// laboratory topology, good to ~10 participants. Conference generalizes
// it to the geo-sharded deployments the providers actually run at city
// scale (Chang et al., "Can You See Me Now?"): one SfuServer per region,
// every client attached to its regional SFU, and media crossing between
// regions over inter-SFU relay links exactly once per (publisher, peer
// region) — then fanned out locally by the peer SFU with its own
// per-viewer selection.
//
// On top of the fleet it adds what city-scale calls need and a single
// Call never exercised:
//  * join/leave churn: participants may join late and leave (or time out)
//    mid-call, including while their SFU is blacked out. Every exit path
//    tears the member's subscriptions, publisher legs, relay egresses and
//    remote legs down on all SFUs; note_departed() arms the fleet-wide
//    "no forwarding to departed clients" invariant behind it.
//  * layout-driven subscription sets: a gallery viewer subscribes only to
//    the tiles on its visible page (layout.h visible_tiles), a speaker
//    viewer to the pinned speaker plus the filmstrip. Slots freed by a
//    leaver are backfilled from the join-ordered roster.
//  * relay refcounting: the first viewer of publisher P in region R
//    creates the P->R relay (one egress on P's SFU, one remote leg on
//    R's); the last one to go tears it down.
#pragma once

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/scheduler.h"
#include "net/node.h"
#include "vca/client.h"
#include "vca/layout.h"
#include "vca/profile.h"
#include "vca/sfu.h"

namespace vca {

class Conference {
 public:
  struct Config {
    VcaProfile profile;
    ViewMode mode = ViewMode::kGallery;
    int pinned_client = 0;  // roster index everyone pins in speaker mode
    FlowId flow_base = 1000;
    uint64_t seed = 1;
    Duration signaling_tick = Duration::millis(200);
  };

  Conference(EventScheduler* sched, Config cfg);

  // Register a regional SFU (before start()); returns the region index.
  // `region_sched` is the region's own shard scheduler: the SFU and every
  // client of that region live on it, while the Conference's
  // signaling/churn timers stay on the constructor (control) scheduler.
  int add_region(Host* sfu_host, EventScheduler* region_sched);

  // Add a participant attached to region `region`. `join_at` in the past
  // (or zero) means present from the start; a finite `leave_at` schedules
  // the member's departure. Flow ids are allocated here, at roster-build
  // time, so churn order never perturbs another member's flows.
  VcaClient* add_client(Host* host, int region,
                        TimePoint join_at = TimePoint::zero(),
                        TimePoint leave_at = TimePoint::infinite());

  void start();
  void stop();
  bool running() const { return running_; }

  // Immediate churn (tests drive these directly; scheduled churn from
  // add_client uses the same paths). Both are idempotent; leave() works
  // while any SFU is offline and while relays are mid-flight.
  void join(VcaClient* client);
  void leave(VcaClient* client);

  VcaClient* client(size_t i) { return members_[i].client.get(); }
  size_t size() const { return members_.size(); }
  int active_count() const;
  bool is_active(VcaClient* client) const;
  SfuServer* sfu(int region) { return sfus_[static_cast<size_t>(region)].get(); }
  int region_count() const { return static_cast<int>(sfus_.size()); }
  int region_of(VcaClient* client) const;
  const VcaProfile& profile() const { return cfg_.profile; }

  // Feeds a viewer currently subscribes to (its visible tiles).
  int subscription_count_for(VcaClient* viewer) const;
  // Live inter-SFU relay streams fleet-wide (one per publisher x peer
  // region with >= 1 viewer there).
  int relay_count() const;

  // Fleet-wide SFU invariants (same contract as
  // Link::append_invariant_violations): forwarding to departed clients,
  // stale subscriptions surviving an exit path.
  void append_invariant_violations(std::vector<std::string>* out) const;
  int64_t forwards_to_departed() const;

  // A peer SFU's keyframe request to a remote publisher is the one
  // direct cross-region call in the fleet. It is queued per viewer region
  // (written only by that region's shard thread) instead of invoked
  // inline; the ShardRunner's barrier hook drains the queues — region
  // index ascending, FIFO within — which keeps the order independent of
  // the worker-thread count.
  void drain_deferred_keyframes();

 private:
  struct Member {
    std::unique_ptr<VcaClient> client;
    int region = 0;
    int roster_index = 0;
    TimePoint join_at;
    TimePoint leave_at = TimePoint::infinite();
    bool joined = false;
    bool departed = false;
  };

  // One live viewer->publisher subscription.
  struct SubRec {
    VcaClient* viewer = nullptr;
    NodeId origin = kInvalidNode;
    int viewer_region = 0;
    int origin_region = 0;
    FlowId video_flow = 0;
    FlowId audio_flow = 0;
  };

  Member* member_for(VcaClient* client);
  Member* member_for_node(NodeId node);
  void ensure_relay(Member& pub, int viewer_region);
  void release_relay(NodeId origin, int origin_region, int viewer_region);
  void do_subscribe(Member& viewer, Member& pub);
  void do_unsubscribe(size_t rec_index);
  // Re-derive every active viewer's visible set from the roster and diff
  // it against live subscriptions (called on each membership change).
  void recompute_subscriptions();
  bool is_pinned_publisher(const Member& pub) const;
  void signaling();

  EventScheduler* sched_;
  Config cfg_;
  std::vector<std::unique_ptr<SfuServer>> sfus_;
  std::vector<EventScheduler*> region_scheds_;  // parallel to sfus_
  struct PendingKeyframe {
    VcaClient* publisher = nullptr;
    int layer = 0;
  };
  std::vector<std::vector<PendingKeyframe>> pending_keyframes_;  // per region
  std::vector<Member> members_;
  std::vector<SubRec> subs_;
  // (publisher origin, viewer region) -> live subscription count / relay
  // flow base. Value-keyed map: deterministic iteration.
  std::map<std::pair<NodeId, int>, int> relay_refs_;
  std::map<std::pair<NodeId, int>, FlowId> relay_flows_;
  FlowId next_flow_;
  bool running_ = false;
};

}  // namespace vca
