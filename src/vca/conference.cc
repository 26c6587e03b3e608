#include "vca/conference.h"

#include <algorithm>

namespace vca {

namespace {
// Flow-id plan: every flow is a pure function of roster position, so a
// member's flows never depend on join order, churn history, or how many
// times a tile paged in and out (a re-subscription reuses its old flows —
// safe, they are unregistered in between).
constexpr FlowId kSubFlowOffset = 1'000'000;
constexpr FlowId kRelayFlowOffset = 10'000'000;
}  // namespace

Conference::Conference(EventScheduler* sched, Config cfg)
    : sched_(sched), cfg_(std::move(cfg)), next_flow_(cfg_.flow_base) {}

int Conference::add_region(Host* sfu_host, EventScheduler* region_sched) {
  SfuServer::Config sc;
  sc.profile = cfg_.profile;
  sfus_.push_back(std::make_unique<SfuServer>(region_sched, sfu_host, sc));
  region_scheds_.push_back(region_sched);
  pending_keyframes_.emplace_back();
  return static_cast<int>(sfus_.size()) - 1;
}

VcaClient* Conference::add_client(Host* host, int region, TimePoint join_at,
                                  TimePoint leave_at) {
  Member m;
  m.region = region;
  m.roster_index = static_cast<int>(members_.size());
  m.join_at = join_at;
  m.leave_at = leave_at;

  VcaClient::Config cc;
  cc.profile = cfg_.profile;
  cc.sfu_node = sfus_[static_cast<size_t>(region)]->host()->id();
  cc.media_flow_base = next_flow_;
  next_flow_ += 16;
  cc.seed = cfg_.seed * 7919 + members_.size() + 1;
  // The client's media timers live on its region's shard, with its SFU.
  m.client = std::make_unique<VcaClient>(
      region_scheds_[static_cast<size_t>(region)], host, cc);
  members_.push_back(std::move(m));
  return members_.back().client.get();
}

Conference::Member* Conference::member_for(VcaClient* client) {
  for (auto& m : members_) {
    if (m.client.get() == client) return &m;
  }
  return nullptr;
}

Conference::Member* Conference::member_for_node(NodeId node) {
  for (auto& m : members_) {
    if (m.client->host()->id() == node) return &m;
  }
  return nullptr;
}

int Conference::active_count() const {
  int n = 0;
  for (const auto& m : members_) n += m.joined ? 1 : 0;
  return n;
}

bool Conference::is_active(VcaClient* client) const {
  for (const auto& m : members_) {
    if (m.client.get() == client) return m.joined;
  }
  return false;
}

int Conference::region_of(VcaClient* client) const {
  for (const auto& m : members_) {
    if (m.client.get() == client) return m.region;
  }
  return -1;
}

int Conference::subscription_count_for(VcaClient* viewer) const {
  int n = 0;
  for (const auto& s : subs_) n += s.viewer == viewer ? 1 : 0;
  return n;
}

int Conference::relay_count() const {
  int n = 0;
  for (const auto& [key, refs] : relay_refs_) n += refs > 0 ? 1 : 0;
  return n;
}

bool Conference::is_pinned_publisher(const Member& pub) const {
  return cfg_.mode == ViewMode::kSpeaker &&
         pub.roster_index == cfg_.pinned_client;
}

void Conference::start() {
  if (running_) return;
  running_ = true;
  TimePoint now = sched_->now();
  for (auto& m : members_) {
    if (m.join_at <= now) {
      join(m.client.get());
    } else {
      VcaClient* c = m.client.get();
      sched_->schedule_at(m.join_at, [this, c] {
        if (running_) join(c);
      });
    }
    if (m.leave_at < TimePoint::infinite()) {
      VcaClient* c = m.client.get();
      sched_->schedule_at(m.leave_at, [this, c] {
        if (running_) leave(c);
      });
    }
  }
  for (auto& s : sfus_) s->start();
  signaling();
}

void Conference::stop() {
  if (!running_) return;
  running_ = false;
  for (auto& m : members_) {
    if (m.joined) m.client->stop();
  }
}

void Conference::join(VcaClient* client) {
  Member* m = member_for(client);
  if (m == nullptr || m->joined || m->departed) return;
  m->joined = true;
  sfus_[static_cast<size_t>(m->region)]->add_publisher(client);
  client->start();
  recompute_subscriptions();
}

void Conference::leave(VcaClient* client) {
  Member* m = member_for(client);
  if (m == nullptr || !m->joined) return;
  m->joined = false;
  m->departed = true;
  NodeId node = client->host()->id();

  // Arm the invariant first: from this instant, any frame any SFU
  // forwards toward this client proves an exit path leaked.
  for (auto& s : sfus_) s->note_departed(node);

  // Tear down every subscription touching the leaver — feeds others have
  // of it, and feeds it has of others — releasing relays whose last
  // viewer this was.
  for (size_t i = subs_.size(); i-- > 0;) {
    if (subs_[i].viewer == client || subs_[i].origin == node) {
      do_unsubscribe(i);
    }
  }

  // Its publisher legs: the home SFU (which also drops any remaining
  // relay egresses) and every remote leg peers still hold.
  sfus_[static_cast<size_t>(m->region)]->remove_publisher(client);
  for (size_t r = 0; r < sfus_.size(); ++r) {
    if (static_cast<int>(r) != m->region) {
      sfus_[r]->remove_remote_publisher(node);
    }
  }
  client->stop();
  recompute_subscriptions();
}

void Conference::ensure_relay(Member& pub, int viewer_region) {
  NodeId origin = pub.client->host()->id();
  auto key = std::make_pair(origin, viewer_region);
  int& refs = relay_refs_[key];
  ++refs;
  if (refs > 1) return;

  const FlowId streams =
      static_cast<FlowId>(cfg_.profile.layers.size()) + 1;  // layers + audio
  FlowId flow_base =
      cfg_.flow_base + kRelayFlowOffset +
      (static_cast<FlowId>(pub.roster_index) *
           static_cast<FlowId>(sfus_.size()) +
       static_cast<FlowId>(viewer_region)) *
          streams;
  relay_flows_[key] = flow_base;

  SfuServer* home = sfus_[static_cast<size_t>(pub.region)].get();
  SfuServer* peer = sfus_[static_cast<size_t>(viewer_region)].get();
  home->add_relay_out(pub.client.get(), peer->host()->id(), flow_base);
  VcaClient* pub_client = pub.client.get();
  // The remote leg fires from the VIEWER region's shard; the publisher
  // lives on another. Queue the request (single writer: that shard's
  // thread) and let the barrier hook deliver it — whatever the worker
  // count, so results stay identical across --shards values.
  peer->add_remote_publisher(
      origin, home->host()->id(), flow_base,
      [this, pub_client, viewer_region](int layer) {
        pending_keyframes_[static_cast<size_t>(viewer_region)].push_back(
            PendingKeyframe{pub_client, layer});
      });
}

void Conference::release_relay(NodeId origin, int origin_region,
                               int viewer_region) {
  auto key = std::make_pair(origin, viewer_region);
  auto it = relay_refs_.find(key);
  if (it == relay_refs_.end() || it->second == 0) return;
  if (--it->second > 0) return;
  relay_refs_.erase(it);
  relay_flows_.erase(key);
  SfuServer* home = sfus_[static_cast<size_t>(origin_region)].get();
  SfuServer* peer = sfus_[static_cast<size_t>(viewer_region)].get();
  home->remove_relay_out(origin, peer->host()->id());
  peer->remove_remote_publisher(origin);
}

void Conference::do_subscribe(Member& viewer, Member& pub) {
  NodeId origin = pub.client->host()->id();
  if (viewer.region != pub.region) ensure_relay(pub, viewer.region);

  SubRec rec;
  rec.viewer = viewer.client.get();
  rec.origin = origin;
  rec.viewer_region = viewer.region;
  rec.origin_region = pub.region;
  rec.video_flow = cfg_.flow_base + kSubFlowOffset +
                   (static_cast<FlowId>(viewer.roster_index) *
                        static_cast<FlowId>(members_.size()) +
                    static_cast<FlowId>(pub.roster_index)) *
                       2;
  rec.audio_flow = rec.video_flow + 1;

  SfuServer* sfu = sfus_[static_cast<size_t>(viewer.region)].get();
  sfu->subscribe_origin(viewer.client.get(), origin, rec.video_flow,
                        rec.audio_flow);
  viewer.client->add_feed(rec.video_flow, rec.video_flow, origin);
  subs_.push_back(rec);
}

void Conference::do_unsubscribe(size_t rec_index) {
  SubRec rec = subs_[rec_index];
  subs_.erase(subs_.begin() + static_cast<ptrdiff_t>(rec_index));
  SfuServer* sfu = sfus_[static_cast<size_t>(rec.viewer_region)].get();
  sfu->unsubscribe(rec.viewer, rec.origin);
  rec.viewer->remove_feed(rec.video_flow);
  if (rec.viewer_region != rec.origin_region) {
    release_relay(rec.origin, rec.origin_region, rec.viewer_region);
  }
}

void Conference::recompute_subscriptions() {
  if (!running_) return;
  const int n = active_count();
  const int tiles = visible_tiles(cfg_.profile.kind, n, cfg_.mode);

  // Desired set per active viewer: in speaker mode the pinned speaker
  // always occupies a slot, then the join-ordered roster backfills the
  // remaining tiles. A leaver's slot is reclaimed by the next active
  // member automatically.
  for (auto& viewer : members_) {
    if (!viewer.joined) continue;
    // Collect desired publishers, in roster order.
    std::vector<const Member*> desired;
    if (cfg_.mode == ViewMode::kSpeaker &&
        cfg_.pinned_client >= 0 &&
        cfg_.pinned_client < static_cast<int>(members_.size())) {
      const Member& pinned = members_[static_cast<size_t>(cfg_.pinned_client)];
      if (pinned.joined && pinned.client.get() != viewer.client.get()) {
        desired.push_back(&pinned);
      }
    }
    for (const auto& pub : members_) {
      if (static_cast<int>(desired.size()) >= tiles) break;
      if (!pub.joined || pub.client.get() == viewer.client.get()) continue;
      bool already = false;
      for (const Member* d : desired) already |= d == &pub;
      if (!already) desired.push_back(&pub);
    }

    // Drop subscriptions that fell off the page.
    for (size_t i = subs_.size(); i-- > 0;) {
      if (subs_[i].viewer != viewer.client.get()) continue;
      bool keep = false;
      for (const Member* d : desired) {
        keep |= d->client->host()->id() == subs_[i].origin;
      }
      if (!keep) do_unsubscribe(i);
    }
    // Add the missing ones.
    for (const Member* d : desired) {
      NodeId origin = d->client->host()->id();
      bool have = false;
      for (const auto& s : subs_) {
        have |= s.viewer == viewer.client.get() && s.origin == origin;
      }
      if (!have) do_subscribe(viewer, *member_for_node(origin));
    }
    // Refresh layout-driven knobs (they change with the active count).
    SfuServer* sfu = sfus_[static_cast<size_t>(viewer.region)].get();
    for (const Member* d : desired) {
      NodeId origin = d->client->host()->id();
      bool pinned = is_pinned_publisher(*d);
      sfu->set_pinned_origin(viewer.client.get(), origin, pinned);
      sfu->set_desired_width_origin(
          viewer.client.get(), origin,
          requested_width(cfg_.profile.kind, n, cfg_.mode, pinned));
    }
  }
}

void Conference::signaling() {
  if (!running_) return;
  const int n = active_count();

  // Teams §6.1 anomaly at fleet scale: the relay thinning keys off the
  // conference size, not any single SFU's local population.
  if (cfg_.profile.kind == VcaKind::kTeams) {
    for (auto& s : sfus_) s->set_relay_divisor(n >= 6 ? 2 : 1);
  }

  for (auto& pub : members_) {
    if (!pub.joined) continue;
    VcaClient* publisher = pub.client.get();
    NodeId origin = publisher->host()->id();
    bool pinned = is_pinned_publisher(pub);

    int max_w = n <= 1 ? 1280
                       : requested_width(cfg_.profile.kind, n, cfg_.mode,
                                         pinned);
    publisher->set_encode_max_width(std::max(max_w, 180));

    if (cfg_.profile.arch == Architecture::kRelay) {
      // The most constrained viewer anywhere in the fleet governs the
      // sender (cross-SFU signaling: each regional SFU reports the
      // narrowest share among its local viewers of this publisher).
      DataRate min_share = DataRate::mbps(1000);
      for (auto& s : sfus_) {
        min_share = std::min(min_share, s->min_viewer_share_for_origin(origin));
      }
      publisher->set_allowed_rate(min_share);
    }
    if (cfg_.profile.kind == VcaKind::kMeet) {
      bool ultra = false;
      for (auto& s : sfus_) ultra |= s->any_ultra_low_origin(origin);
      publisher->set_ultra_low(ultra);
    }
    if (cfg_.profile.speaker_uplink_anomaly) {
      double boost = pinned ? std::clamp(0.9 + 0.235 * (n - 3), 1.0, 2.1) : 1.0;
      publisher->set_speaker_boost(boost);
    }
  }

  sched_->schedule(cfg_.signaling_tick, [this] { signaling(); });
}

void Conference::append_invariant_violations(std::vector<std::string>* out) const {
  for (const auto& s : sfus_) s->append_invariant_violations(out);
}

void Conference::drain_deferred_keyframes() {
  for (auto& queue : pending_keyframes_) {
    for (const PendingKeyframe& pk : queue) {
      // Safe on a departed publisher: members own their clients for the
      // Conference's lifetime and request_keyframe on a stopped client
      // only marks the (idle) encoder.
      pk.publisher->request_keyframe(pk.layer);
    }
    queue.clear();
  }
}

int64_t Conference::forwards_to_departed() const {
  int64_t total = 0;
  for (const auto& s : sfus_) total += s->forwards_to_departed();
  return total;
}

}  // namespace vca
