#include "harness/network.h"

#include "core/perf.h"
#include "harness/sweep.h"

namespace vca {

std::vector<EventScheduler*> Network::shard_scheds() {
  std::vector<EventScheduler*> out;
  out.reserve(shard_scheds_.size());
  for (const auto& s : shard_scheds_) out.push_back(s.get());
  return out;
}

Network::HostPorts Network::add_host(const std::string& name, DataRate up,
                                     DataRate down, Duration prop,
                                     int64_t queue_bytes) {
  auto host = std::make_unique<Host>(next_id_++, name);
  Link::Config cfg;
  cfg.propagation = prop;
  cfg.queue_bytes = queue_bytes;

  cfg.rate = up;
  auto up_link = std::make_unique<Link>(&sched_, name + "-up", cfg);
  cfg.rate = down;
  auto down_link = std::make_unique<Link>(&sched_, name + "-down", cfg);

  host->set_uplink(up_link.get());
  up_link->set_sink(&router_);
  router_.add_route(host->id(), down_link.get());
  down_link->set_sink(host.get());

  HostPorts ports{host.get(), up_link.get(), down_link.get()};
  checker_.watch(up_link.get());
  checker_.watch(down_link.get());
  hosts_.push_back(std::move(host));
  links_.push_back(std::move(up_link));
  links_.push_back(std::move(down_link));
  return ports;
}

Network::Segment* Network::add_segment(DataRate rate, Duration prop,
                                       int64_t queue_bytes) {
  auto seg = std::make_unique<Segment>();
  auto sw = std::make_unique<ForwardingNode>("switch");

  Link::Config cfg;
  cfg.rate = rate;
  cfg.propagation = prop;
  cfg.queue_bytes = queue_bytes;
  auto up = std::make_unique<Link>(&sched_, "segment-up", cfg);
  auto down = std::make_unique<Link>(&sched_, "segment-down", cfg);

  sw->set_default_route(up.get());
  up->set_sink(&router_);
  down->set_sink(sw.get());

  seg->sw = sw.get();
  seg->shared_up = up.get();
  seg->shared_down = down.get();

  checker_.watch(up.get());
  checker_.watch(down.get());
  switches_.push_back(std::move(sw));
  links_.push_back(std::move(up));
  links_.push_back(std::move(down));
  segments_.push_back(std::move(seg));
  return segments_.back().get();
}

Network::HostPorts Network::add_host_on_segment(Segment* seg,
                                                const std::string& name) {
  auto host = std::make_unique<Host>(next_id_++, name);
  // Host <-> switch links are fast LAN links; the shared segment links
  // carry the shaping.
  Link::Config cfg;
  cfg.rate = DataRate::gbps(1);
  cfg.propagation = Duration::micros(200);
  cfg.queue_bytes = 1 << 20;

  auto up_link = std::make_unique<Link>(&sched_, name + "-lan-up", cfg);
  auto down_link = std::make_unique<Link>(&sched_, name + "-lan-down", cfg);

  host->set_uplink(up_link.get());
  up_link->set_sink(seg->sw);
  seg->sw->add_route(host->id(), down_link.get());
  down_link->set_sink(host.get());
  // Router reaches this host through the shared downlink.
  router_.add_route(host->id(), seg->shared_down);

  HostPorts ports{host.get(), up_link.get(), down_link.get()};
  checker_.watch(up_link.get());
  checker_.watch(down_link.get());
  hosts_.push_back(std::move(host));
  links_.push_back(std::move(up_link));
  links_.push_back(std::move(down_link));
  return ports;
}

Network::Region* Network::add_region(const std::string& name,
                                     DataRate relay_rate, Duration relay_prop,
                                     int64_t queue_bytes) {
  auto reg = std::make_unique<Region>();
  reg->name = name;
  reg->relay_rate = relay_rate;
  auto sw = std::make_unique<ForwardingNode>("region-" + name);

  // The region gets its own scheduler (one logical shard per region) and
  // its relay uplink becomes a boundary link — the only place a
  // shard-owned event can emit a packet toward a foreign shard, so its
  // propagation delay lower-bounds the conservative lookahead.
  // (Control-strand boundary links — core-host and segment uplinks —
  // never post mid-window: the control strand only runs at barriers, and
  // the barrier horizon never passes its next pending event.)
  shard_scheds_.push_back(std::make_unique<EventScheduler>());
  EventScheduler* owner = shard_scheds_.back().get();
  checker_.watch(owner);
  reg->sched = owner;
  reg->shard = bus_.add_shard();
  boundary_min_prop_ = std::min(boundary_min_prop_, relay_prop);

  Link::Config cfg;
  cfg.rate = relay_rate;
  cfg.propagation = relay_prop;
  cfg.queue_bytes = queue_bytes;
  auto up = std::make_unique<Link>(owner, name + "-relay-up", cfg);
  auto down = std::make_unique<Link>(owner, name + "-relay-down", cfg);

  // Traffic leaving the region rides the relay uplink to the core; the
  // regional switch keeps per-host routes so intra-region traffic turns
  // around locally without paying the backbone delay.
  sw->set_default_route(up.get());
  up->set_sink(&router_);
  down->set_sink(sw.get());
  up->set_cross_shard(&bus_, reg->shard);

  reg->sw = sw.get();
  reg->relay_up = up.get();
  reg->relay_down = down.get();

  checker_.watch(up.get());
  checker_.watch(down.get());
  switches_.push_back(std::move(sw));
  links_.push_back(std::move(up));
  links_.push_back(std::move(down));
  regions_.push_back(std::move(reg));
  return regions_.back().get();
}

Network::HostPorts Network::add_host_in_region(Region* reg,
                                               const std::string& name,
                                               DataRate up, DataRate down,
                                               Duration prop,
                                               int64_t queue_bytes) {
  auto host = std::make_unique<Host>(next_id_++, name);
  EventScheduler* owner = reg->sched;
  Link::Config cfg;
  cfg.propagation = prop;
  cfg.queue_bytes = queue_bytes;

  cfg.rate = up;
  auto up_link = std::make_unique<Link>(owner, name + "-up", cfg);
  cfg.rate = down;
  auto down_link = std::make_unique<Link>(owner, name + "-down", cfg);

  host->set_uplink(up_link.get());
  up_link->set_sink(reg->sw);
  reg->sw->add_route(host->id(), down_link.get());
  down_link->set_sink(host.get());
  // The core reaches this host through the region's relay downlink.
  router_.add_route(host->id(), reg->relay_down);
  // Boundary links look the destination shard up by packet dst.
  bus_.set_node_shard(host->id(), reg->shard);

  HostPorts ports{host.get(), up_link.get(), down_link.get()};
  checker_.watch(up_link.get());
  checker_.watch(down_link.get());
  hosts_.push_back(std::move(host));
  links_.push_back(std::move(up_link));
  links_.push_back(std::move(down_link));
  return ports;
}

TapFanout* Network::fanout_for(Link* link) {
  for (size_t i = 0; i < tapped_.size(); ++i) {
    if (tapped_[i] == link) return fanouts_[i].get();
  }
  auto fan = std::make_unique<TapFanout>();
  TapFanout* raw = fan.get();
  link->set_tap(raw->tap());
  fanouts_.push_back(std::move(fan));
  tapped_.push_back(link);
  return raw;
}

FlowCapture* Network::capture(Link* link, Duration bucket) {
  auto cap = std::make_unique<FlowCapture>(bucket);
  FlowCapture* raw = cap.get();
  captures_.push_back(std::move(cap));
  fanout_for(link)->add(raw->tap());
  return raw;
}

TraceRecorder* Network::record(Link* link, uint32_t snaplen) {
  auto rec = std::make_unique<TraceRecorder>(snaplen);
  TraceRecorder* raw = rec.get();
  recorders_.push_back(std::move(rec));
  fanout_for(link)->add(raw->tap());
  return raw;
}

uint64_t note_run_perf(Network& net) {
  uint64_t events = net.events_processed_total();
  note_sim_events(events);
  perf::note_peak_heap_events(net.peak_pending_max());
  perf::note_link_packets(
      static_cast<uint64_t>(net.total_delivered_packets()));
  std::vector<EventScheduler*> scheds = net.shard_scheds();
  if (!scheds.empty()) {
    perf::note_shard_run(0, net.sched().events_processed(),
                         net.sched().peak_pending(),
                         net.shard_bus().handoffs_from(0));
    for (size_t i = 0; i < scheds.size(); ++i) {
      int shard = static_cast<int>(i) + 1;
      perf::note_shard_run(shard, scheds[i]->events_processed(),
                           scheds[i]->peak_pending(),
                           net.shard_bus().handoffs_from(shard));
    }
  }
  return events;
}

}  // namespace vca
