// Topology builder: the laboratory network of §2.2 and Fig 7.
//
// Hosts hang off a router through a pair of access links (the uplink is
// where `tc` shaping happens in the paper); competition experiments put
// two hosts behind a switch that shares one shaped link pair.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "net/invariants.h"
#include "net/link.h"
#include "net/node.h"
#include "net/shard.h"
#include "stats/capture.h"
#include "trace/recorder.h"

namespace vca {

class Network {
 public:
  struct HostPorts {
    Host* host = nullptr;
    Link* up = nullptr;    // host -> router (shaped for uplink experiments)
    Link* down = nullptr;  // router -> host
  };

  struct Segment {
    ForwardingNode* sw = nullptr;
    Link* shared_up = nullptr;    // switch -> router (the shared bottleneck)
    Link* shared_down = nullptr;  // router -> switch
  };

  // A geographic region for cascaded-SFU fleets: a regional aggregation
  // node whose hosts reach the rest of the world through a pair of
  // wide-area relay links (where inter-region propagation delay and
  // relay-link faults live). Intra-region traffic never touches them.
  struct Region {
    std::string name;
    ForwardingNode* sw = nullptr;
    Link* relay_up = nullptr;    // region -> core (inter-SFU direction out)
    Link* relay_down = nullptr;  // core -> region
    DataRate relay_rate;
    // The region's own scheduler and shard index (shard 0 is the
    // control strand).
    EventScheduler* sched = nullptr;
    int shard = 0;
  };

  Network() { checker_.watch(&sched_); }

  // Captures and recorders hand `this`-capturing taps to links (see the
  // ownership contract in stats/capture.h). Detach every tap before the
  // captures, fanouts, and recorders they point into are destroyed.
  ~Network() {
    for (Link* l : tapped_) l->set_tap({});
  }

  EventScheduler& sched() { return sched_; }
  ForwardingNode& router() { return router_; }

  // --- sharded event core (net/shard.h) -----------------------------------
  //
  // Every region gets its own EventScheduler (one logical shard per
  // region); hosts attached directly to the router stay on the control
  // strand (shard 0). A region's relay uplink is a boundary link: it
  // feeds the cross-shard mailbox bus, and the minimum of the relay
  // propagation delays is the conservative lookahead (so it must stay
  // > 0). A topology with regions runs under a ShardRunner; one without
  // has no shards and runs on sched() alone.
  //
  // No-op: every region is a shard. vcaperf/conf_city.cc still calls it.
  void enable_sharding() {}
  ShardBus& shard_bus() { return bus_; }
  // Schedulers of shards 1..R in region order (the ShardRunner input).
  std::vector<EventScheduler*> shard_scheds();
  Duration shard_lookahead() const { return boundary_min_prop_; }

  // Events retired across the control strand and every shard.
  uint64_t events_processed_total() const {
    uint64_t total = sched_.events_processed();
    for (const auto& s : shard_scheds_) total += s->events_processed();
    return total;
  }
  // Deepest event heap across all shards (perf counter).
  uint64_t peak_pending_max() const {
    uint64_t peak = sched_.peak_pending();
    for (const auto& s : shard_scheds_) {
      peak = std::max<uint64_t>(peak, s->peak_pending());
    }
    return peak;
  }

  // A host directly attached to the router.
  HostPorts add_host(const std::string& name,
                     DataRate up = DataRate::gbps(1),
                     DataRate down = DataRate::gbps(1),
                     Duration prop = Duration::millis(2),
                     int64_t queue_bytes = 150 * 1024);

  // A shared access segment (paper Fig 7); attach hosts with
  // add_host_on_segment. Both directions are shaped to `rate`.
  Segment* add_segment(DataRate rate, Duration prop = Duration::millis(2),
                       int64_t queue_bytes = 150 * 1024);
  HostPorts add_host_on_segment(Segment* seg, const std::string& name);

  // A region (cascaded-SFU fleet). `relay_prop` is the one-way region <->
  // core backbone delay; region-to-region latency is the sum of the two
  // regions' relay propagations. Attach hosts (clients and the regional
  // SFU) with add_host_in_region.
  Region* add_region(const std::string& name,
                     DataRate relay_rate = DataRate::gbps(10),
                     Duration relay_prop = Duration::millis(25),
                     int64_t queue_bytes = 8 << 20);
  HostPorts add_host_in_region(Region* reg, const std::string& name,
                               DataRate up = DataRate::gbps(1),
                               DataRate down = DataRate::gbps(1),
                               Duration prop = Duration::millis(2),
                               int64_t queue_bytes = 150 * 1024);

  // Attach a capture to a link (multiple captures per link are fine).
  FlowCapture* capture(Link* link, Duration bucket = Duration::seconds(1));

  // Attach a packet-trace recorder to a link: the simulated `tcpdump -i
  // <link> -s <snaplen>`. Coexists with FlowCaptures on the same link
  // via the shared fanout.
  TraceRecorder* record(Link* link, uint32_t snaplen = kPcapDefaultSnaplen);

  // Sum of delivered packets over every link in the topology; feeds the
  // per-run perf counters (perf.h) in BenchReport's timing line.
  int64_t total_delivered_packets() const {
    int64_t total = 0;
    for (const auto& l : links_) total += l->delivered_packets();
    return total;
  }

  // True while `link` has a tap installed by capture()/record().
  bool link_is_tapped(const Link* link) const {
    for (const Link* l : tapped_) {
      if (l == link) return true;
    }
    return false;
  }

  // Re-shape a link at an absolute simulation time (the tc command).
  void shape_at(Link* link, TimePoint at, DataRate rate) {
    sched_.schedule_at(at, [link, rate] { link->set_rate(rate); });
  }

  // Simulation self-checks over every link this topology created plus the
  // scheduler clock. check() lists violations; enforce() also prints them
  // and asserts in debug builds. Scenarios call enforce() after run_until
  // so every test exercises the invariants.
  std::vector<std::string> check_invariants() const { return checker_.check(); }
  int enforce_invariants() const { return checker_.enforce(); }

 private:
  TapFanout* fanout_for(Link* link);

  EventScheduler sched_;
  ShardBus bus_;
  std::vector<std::unique_ptr<EventScheduler>> shard_scheds_;
  Duration boundary_min_prop_ = Duration::infinite();
  SimInvariantChecker checker_;
  ForwardingNode router_{"router"};
  NodeId next_id_ = 1;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<ForwardingNode>> switches_;
  std::vector<std::unique_ptr<Segment>> segments_;
  std::vector<std::unique_ptr<Region>> regions_;
  std::vector<std::unique_ptr<FlowCapture>> captures_;
  std::vector<std::unique_ptr<TraceRecorder>> recorders_;
  std::vector<std::unique_ptr<TapFanout>> fanouts_;
  std::vector<Link*> tapped_;  // parallel to fanouts_
};

// End-of-run perf bookkeeping every runner shares: retires the run's
// events into the process-wide counter (sweep.h) and feeds the perf layer
// (core/perf.h) the deepest heap, the link-delivered packets and, when the
// topology has region shards, the per-shard breakdown BenchReport's
// timing line prints (shard 0 is the control strand; handoffs are the
// packets a shard posted into the cross-shard mailboxes). Returns the
// run's event total.
uint64_t note_run_perf(Network& net);

}  // namespace vca
