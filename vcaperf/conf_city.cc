// conf_city: one cascaded-SFU gallery conference (webex, 4 regions, 64
// parties, join/leave churn) on the sharded engine with one worker
// thread. The topology is built here, call for call as run_conference
// builds it, so that spans can wrap each public call; a reference
// run_conference over the first seconds checks that the two builds agree.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/perf.h"
#include "harness/network.h"
#include "harness/scenario.h"
#include "harness/sweep.h"
#include "vca/conference.h"

namespace vcaperf {

using namespace vca;

namespace {

// Simulated seconds per second of --seconds, over all runs; about half
// a host second per simulated second on a 2.1 GHz Xeon at 64 parties.
constexpr double kSimSecondsPerBudgetSecond = 3.5;
// The same conference (same seed, so the same work) runs this many times,
// each in a process of its own, and each slice counts with its median time
// over the runs: the host's speed changes over seconds and between
// processes (see "Steadiness" in README.md).
constexpr int kRepeats = 5;
// The reference run_conference covers bootstrap and the first churn.
constexpr int kCheckSeconds = 4;
// The run advances in slices of simulated time (a divisor of 1000, so that
// the slices end at the conference's end); 50 ms slices give a 14 s
// conference 280 window samples, fourteen of them above the 95th
// percentile.
constexpr int kSliceMs = 50;

ConferenceConfig city_config(const Params& p) {
  ConferenceConfig c;
  c.profile = "webex";
  c.mode = ViewMode::kGallery;
  c.seed = p.seed;
  c.shards = 1;
  c.participants = p.quick ? 12 : 64;
  c.regions = p.quick ? 2 : 4;
  c.late_joiners = p.quick ? 2 : 6;
  c.early_leavers = p.quick ? 2 : 6;
  c.churn_start = Duration::seconds(2);
  c.churn_step = Duration::millis(p.quick ? 500 : 1000);
  int sim_s = p.quick ? kCheckSeconds
                      : std::max(kCheckSeconds,
                                 static_cast<int>(p.seconds *
                                                  kSimSecondsPerBudgetSecond /
                                                  kRepeats));
  c.duration = Duration::seconds(sim_s);
  c.measure_from = Duration::seconds(1);
  return c;
}

// The conference as run_conference wires it, with each call into a layer
// wrapped in a span.
class City {
 public:
  City(const ConferenceConfig& cfg, Tracer* tr) : cfg_(cfg), tr_(tr) {
    {
      Tracer::Scope s(tr_, "harness.enable_sharding");
      net_.enable_sharding();
    }
    Conference::Config cc;
    cc.profile = vca_profile(cfg.profile);
    cc.mode = cfg.mode;
    cc.seed = cfg.seed;
    conf_ = std::make_unique<Conference>(&net_.sched(), cc);

    for (int r = 0; r < cfg.regions; ++r) {
      std::string name = "r" + std::to_string(r);
      {
        Tracer::Scope s(tr_, "harness.add_region");
        regions_.push_back(
            net_.add_region(name, cfg.relay_rate, cfg.relay_prop, 8 << 20));
      }
      {
        Tracer::Scope s(tr_, "harness.add_host_in_region");
        sfu_ports_.push_back(net_.add_host_in_region(
            regions_.back(), "sfu-" + name, DataRate::gbps(4),
            DataRate::gbps(4), Duration::millis(1), 8 << 20));
      }
      Tracer::Scope s(tr_, "vca.add_region");
      conf_->add_region(sfu_ports_.back().host, regions_.back()->sched);
    }

    const int stable = cfg.participants - cfg.late_joiners;
    for (int i = 0; i < cfg.participants; ++i) {
      int region = i % cfg.regions;
      {
        Tracer::Scope s(tr_, "harness.add_host_in_region");
        ports_.push_back(net_.add_host_in_region(
            regions_[static_cast<size_t>(region)], "c" + std::to_string(i + 1),
            cfg.client_up, cfg.client_down, Duration::millis(2),
            queue_bytes_for(cfg.client_down)));
      }
      TimePoint join_at = TimePoint::zero();
      TimePoint leave_at = TimePoint::infinite();
      if (i >= stable) {
        join_at = TimePoint::zero() + cfg.churn_start +
                  cfg.churn_step * (i - stable);
      } else if (i >= stable / 2 && i < stable / 2 + cfg.early_leavers) {
        leave_at = TimePoint::zero() + cfg.churn_start +
                   cfg.churn_step * (i - stable / 2 + 1);
      }
      Tracer::Scope s(tr_, "vca.add_client");
      clients_.push_back(
          conf_->add_client(ports_.back().host, region, join_at, leave_at));
    }

    {
      Tracer::Scope s(tr_, "harness.capture");
      for (auto& p : ports_) {
        up_caps_.push_back(net_.capture(p.up));
        down_caps_.push_back(net_.capture(p.down));
      }
      for (auto* reg : regions_) {
        relay_caps_.push_back(net_.capture(reg->relay_up));
        relay_caps_.push_back(net_.capture(reg->relay_down));
      }
    }

    // The 1 Hz fanout high-water sampler run_conference schedules on the
    // control strand (its events count, and it bounds the windows).
    peak_subs_.assign(static_cast<size_t>(cfg.regions), 0);
    sample_ = [this] {
      for (int r = 0; r < cfg_.regions; ++r) {
        peak_subs_[static_cast<size_t>(r)] =
            std::max(peak_subs_[static_cast<size_t>(r)],
                     conf_->sfu(r)->subscription_count());
      }
      net_.sched().schedule(Duration::seconds(1), [this] { sample_(); });
    };
    net_.sched().schedule(Duration::seconds(1), [this] { sample_(); });

    {
      Tracer::Scope s(tr_, "vca.start");
      conf_->start();
    }
    Tracer::Scope s(tr_, "net.shard_runner");
    ShardRunner::Options ro;
    ro.threads = cfg.shards;
    runner_ = std::make_unique<ShardRunner>(&net_.sched(), net_.shard_scheds(),
                                            &net_.shard_bus(),
                                            net_.shard_lookahead(), ro);
    runner_->set_barrier_hook([this] { conf_->drain_deferred_keyframes(); });
  }

  City(const City&) = delete;
  City& operator=(const City&) = delete;

  // Advances the simulation to `ms`; returns host nanoseconds.
  int64_t run_until(int ms) {
    Tracer::Scope s(tr_, "core.run_until");
    int64_t t0 = now_ns();
    runner_->run_until(TimePoint::zero() + Duration::millis(ms));
    return now_ns() - t0;
  }

  void track_relays() {
    Tracer::Scope s(tr_, "vca.relay_count");
    peak_relays_ = std::max(peak_relays_, conf_->relay_count());
  }

  void stop() {
    Tracer::Scope s(tr_, "vca.stop");
    conf_->stop();
  }

  // What run_conference reports, at simulated time `to`.
  struct Snapshot {
    double c1_up_mbps = 0.0, c1_down_mbps = 0.0;
    int64_t forwarded = 0;
    int64_t events = 0;
    int64_t link_pkts = 0;
    int active = 0;
  };
  Snapshot snapshot(int to_s) {
    Tracer::Scope s(tr_, "stats.mean_rate");
    TimePoint from = TimePoint::zero() + cfg_.measure_from;
    TimePoint to = TimePoint::zero() + Duration::seconds(to_s);
    Snapshot out;
    out.c1_up_mbps = up_caps_[0]->mean_rate(from, to).mbps_f();
    out.c1_down_mbps = down_caps_[0]->mean_rate(from, to).mbps_f();
    for (int r = 0; r < cfg_.regions; ++r) {
      out.forwarded += conf_->sfu(r)->forwarded_packets();
    }
    out.events = static_cast<int64_t>(net_.events_processed_total());
    out.link_pkts = net_.total_delivered_packets();
    out.active = conf_->active_count();
    return out;
  }

  // Reads every counter the layers expose after the run, into totals
  // (checked) and per-layer metrics.
  void collect(Outcome* o) {
    Totals& t = o->totals;
    Snapshot snap = snapshot(static_cast<int>(cfg_.duration.seconds()));
    t.fold(snap.c1_up_mbps);
    t.fold(snap.c1_down_mbps);
    {
      Tracer::Scope s(tr_, "stats.mean_rate");
      TimePoint from = TimePoint::zero() + cfg_.measure_from;
      TimePoint to = TimePoint::zero() + cfg_.duration;
      for (size_t i = 0; i < clients_.size(); ++i) {
        if (!conf_->is_active(clients_[i])) continue;
        t.fold(down_caps_[i]->mean_rate(from, to).mbps_f());
        t.fold(up_caps_[i]->mean_rate(from, to).mbps_f());
      }
      for (FlowCapture* c : relay_caps_) {
        t.fold(c->mean_rate(from, to).mbps_f());
      }
    }
    {
      Tracer::Scope s(tr_, "stats.rates");
      for (FlowCapture* c : relay_caps_) t.fold(c->rates().size());
    }

    int64_t decoded = 0, lost = 0, sent = 0;
    {
      Tracer::Scope s(tr_, "transport.counters");
      for (VcaClient* c : clients_) {
        sent += c->sent_media_bytes();
        for (const auto& f : c->feeds()) {
          decoded += f->receiver->frames_decoded();
          lost += f->receiver->frames_lost();
        }
      }
    }
    int64_t offered = 0, dropped = 0, queue_drops = 0;
    auto link_counts = [&](const Link* l) {
      offered += l->offered_packets();
      dropped += l->dropped_packets();
      queue_drops += l->queue_dropped_packets();
    };
    for (const auto& p : ports_) {
      link_counts(p.up);
      link_counts(p.down);
    }
    for (const auto& p : sfu_ports_) {
      link_counts(p.up);
      link_counts(p.down);
    }
    for (const auto* reg : regions_) {
      link_counts(reg->relay_up);
      link_counts(reg->relay_down);
    }

    int64_t peak_subs = 0;
    int64_t departed_fwd = 0;
    std::vector<std::string> violations;
    {
      Tracer::Scope s(tr_, "vca.counters");
      for (int r = 0; r < cfg_.regions; ++r) {
        t.set("forwarded_r" + std::to_string(r),
              conf_->sfu(r)->forwarded_packets());
        peak_subs += peak_subs_[static_cast<size_t>(r)];
      }
      departed_fwd = conf_->forwards_to_departed();
      conf_->append_invariant_violations(&violations);
    }
    for (const auto& v : net_.check_invariants()) violations.push_back(v);

    std::vector<double> shard_events;
    for (EventScheduler* s : net_.shard_scheds()) {
      shard_events.push_back(static_cast<double>(s->events_processed()));
    }
    double mean_events = 0.0, max_events = 0.0;
    for (double e : shard_events) {
      mean_events += e / static_cast<double>(shard_events.size());
      max_events = std::max(max_events, e);
    }
    int64_t handoffs = static_cast<int64_t>(net_.shard_bus().handoffs_total());
    double sim_s = cfg_.duration.seconds();

    t.set("events", snap.events);
    t.set("forwarded_pkts", snap.forwarded);
    t.set("link_pkts", snap.link_pkts);
    t.set("active_at_end", snap.active);
    t.set("frames_decoded", decoded);
    t.set("frames_lost", lost);
    t.set("media_bytes_sent", sent);
    t.set("queue_drops", queue_drops);
    t.set("shard_handoffs", handoffs);
    t.set("peak_pending", static_cast<int64_t>(net_.peak_pending_max()));
    t.set("peak_subscriptions", peak_subs);
    t.set("peak_relay_streams", peak_relays_);
    t.set("forwards_to_departed", departed_fwd);
    t.set("invariant_violations", static_cast<int64_t>(violations.size()));

    check(o, violations.empty(),
          "conf_city: invariant violations: " +
              (violations.empty() ? std::string() : violations.front()));
    check(o, departed_fwd == 0, "conf_city: forwarding to departed clients");
    check(o, snap.active == cfg_.participants - cfg_.early_leavers,
          "conf_city: active members at end");
    check(o, decoded > 0 && snap.forwarded > 0, "conf_city: no media flowed");

    auto& L = o->layer;
    L.push_back({"core.events", static_cast<double>(snap.events), "count"});
    L.push_back({"core.events_per_sim_s",
                 static_cast<double>(snap.events) / sim_s, "1/s"});
    L.push_back({"core.peak_pending",
                 static_cast<double>(net_.peak_pending_max()), "count"});
    L.push_back({"net.link_pkts", static_cast<double>(snap.link_pkts),
                 "count"});
    L.push_back({"net.link_queue_drops", static_cast<double>(queue_drops),
                 "count"});
    L.push_back({"net.link_drop_ratio",
                 offered > 0 ? static_cast<double>(dropped) /
                                   static_cast<double>(offered)
                             : 0.0,
                 "ratio"});
    L.push_back({"net.shard_handoffs", static_cast<double>(handoffs), "count"});
    L.push_back({"net.shard_imbalance",
                 mean_events > 0 ? max_events / mean_events : 0.0, "ratio",
                 static_cast<int64_t>(shard_events.size())});
    L.push_back({"vca.sfu_forwarded_pkts", static_cast<double>(snap.forwarded),
                 "count"});
    L.push_back({"vca.peak_subscriptions", static_cast<double>(peak_subs),
                 "count"});
    L.push_back({"vca.relay_streams", static_cast<double>(peak_relays_),
                 "count"});
    L.push_back({"vca.forwards_to_departed", static_cast<double>(departed_fwd),
                 "count"});
    L.push_back({"transport.frames_decoded", static_cast<double>(decoded),
                 "count"});
    L.push_back({"transport.frames_lost", static_cast<double>(lost), "count"});
    L.push_back({"transport.media_bytes_sent", static_cast<double>(sent),
                 "bytes"});
  }

 private:
  ConferenceConfig cfg_;
  Tracer* tr_;
  Network net_;
  std::unique_ptr<Conference> conf_;
  std::vector<Network::Region*> regions_;
  std::vector<Network::HostPorts> sfu_ports_;
  std::vector<Network::HostPorts> ports_;
  std::vector<VcaClient*> clients_;
  std::vector<FlowCapture*> up_caps_, down_caps_, relay_caps_;
  std::vector<int> peak_subs_;
  std::function<void()> sample_;
  int peak_relays_ = 0;
  // Declared last: destroyed first, while the schedulers it drives live.
  std::unique_ptr<ShardRunner> runner_;
};

// One run of the conference, from its build to its teardown, with its
// totals and checks in `o`. Its raw timings go to o->metrics: "setup_s" for
// the build that runs and for a throwaway build every quarter of the
// simulated time, in whole seconds (so that builds meet the host at
// different moments),
// "slice_ns" for each slice in order, and "tail_ns" for stop, counter
// collection and teardown.
void run_once(const ConferenceConfig& cfg, Tracer* tr, Outcome* o,
              City::Snapshot* at_check) {
  const int sim_s = static_cast<int>(cfg.duration.seconds());
  const int spare_every_ms = std::max(1, sim_s / 4) * 1000;
  std::vector<Metric> raw;
  auto timed_build = [&](Tracer* t) {
    int64_t t0 = now_ns();
    auto c = std::make_unique<City>(cfg, t);
    raw.push_back({"setup_s", static_cast<double>(now_ns() - t0) * 1e-9, "s"});
    return c;
  };
  std::unique_ptr<City> city = timed_build(tr);
  const double first_setup_ms = raw.front().value * 1e3;
  int64_t job_t0 = now_ns();
  int64_t spare_ns = 0;
  for (int ms = kSliceMs; ms <= sim_s * 1000; ms += kSliceMs) {
    raw.push_back({"slice_ns", static_cast<double>(city->run_until(ms)), "ns"});
    city->track_relays();
    if (ms == kCheckSeconds * 1000 && at_check != nullptr) {
      *at_check = city->snapshot(kCheckSeconds);
    }
    if (ms % spare_every_ms == 0 && ms < sim_s * 1000) {
      int64_t t0 = now_ns();
      timed_build(nullptr)->stop();
      spare_ns += now_ns() - t0;
    }
  }
  int64_t tail_t0 = now_ns();
  city->stop();
  city->collect(o);
  {
    Tracer::Scope s(tr, "harness.teardown");
    city.reset();
  }
  raw.push_back({"tail_ns", static_cast<double>(now_ns() - tail_t0), "ns"});
  o->e2e_ms =
      static_cast<double>(now_ns() - job_t0 - spare_ns) * 1e-6 + first_setup_ms;
  o->metrics = raw;
}

}  // namespace

Outcome run_conf_city(const Params& p, Tracer* tracer) {
  Outcome o;
  const ConferenceConfig cfg = city_config(p);
  const int sim_s = static_cast<int>(cfg.duration.seconds());

  City::Snapshot at_check;
  const std::vector<Outcome> runs = run_repeats(
      p.quick ? 2 : kRepeats, "conf_city",
      [&](bool first, Outcome* out) {
        run_once(cfg, first ? tracer : nullptr, out,
                 first ? &at_check : nullptr);
        out->attempted = 1;
        out->failed = out->failures.empty() ? 0 : 1;
      },
      &o);

  // Reference: run_conference on the same config, cut at kCheckSeconds.
  ConferenceConfig ref_cfg = cfg;
  ref_cfg.duration = Duration::seconds(kCheckSeconds);
  uint64_t events0 = sim_events_total();
  uint64_t link0 = perf::link_packets_total();
  ConferenceResult ref = run_conference(ref_cfg);
  int64_t ref_events = static_cast<int64_t>(sim_events_total() - events0);
  int64_t ref_link = static_cast<int64_t>(perf::link_packets_total() - link0);
  size_t before = o.failures.size();
  check(&o, ref.invariant_violations.empty(),
        "conf_city: reference run_conference has invariant violations");
  check(&o,
        ref_events == at_check.events &&
            ref.total_forwarded_packets == at_check.forwarded &&
            ref_link == at_check.link_pkts &&
            ref.active_at_end == at_check.active &&
            ref.c1_up_mbps == at_check.c1_up_mbps &&
            ref.c1_down_mbps == at_check.c1_down_mbps,
        "conf_city: build differs from run_conference at t=" +
            std::to_string(kCheckSeconds) + "s (events " +
            std::to_string(at_check.events) + " vs " +
            std::to_string(ref_events) + ", forwarded " +
            std::to_string(at_check.forwarded) + " vs " +
            std::to_string(ref.total_forwarded_packets) + ")");
  o.attempted += 1;
  if (o.failures.size() > before) o.failed += 1;

  // Each slice, and the tail, at its median over the runs.
  std::vector<double> window_ms;  // host ms per simulated second
  double run_ns = 0.0;
  for (const std::vector<double>& slice : by_index(runs, "slice_ns")) {
    const double ns = median(slice);
    run_ns += ns;
    window_ms.push_back(ns * 1e-3 / kSliceMs);
  }
  const double tail_ns = median(by_index(runs, "tail_ns").front());
  std::vector<double> setup_s;
  for (const Outcome& r : runs) {
    for (double s : raw_values(r, "setup_s")) setup_s.push_back(s);
  }
  const int64_t nw = static_cast<int64_t>(window_ms.size());
  const double run_s = run_ns * 1e-9;
  const double job_s = (run_ns + tail_ns) * 1e-9;
  int64_t link_pkts = o.totals.values["link_pkts"];
  auto& M = o.metrics;
  M.clear();  // the first run's raw samples
  M.push_back({"setup_s", median(setup_s), "s",
               static_cast<int64_t>(setup_s.size())});
  const int64_t nr = static_cast<int64_t>(runs.size());
  M.push_back({"sim_rate", sim_s / run_s, "sim_s/s", nw * nr});
  M.push_back({"pkt_rate", static_cast<double>(link_pkts) / run_s, "pkt/s",
               nw * nr});
  M.push_back({"job_p50_s", job_s, "s", nr});
  M.push_back({"job_p90_s", job_s, "s", nr});
  M.push_back({"window_p50_ms", percentile(window_ms, 0.5), "ms", nw});
  M.push_back({"window_p95_ms", percentile(window_ms, 0.95), "ms", nw});

  if (tracer != nullptr) {
    o.layer.push_back({"harness.build_ms",
                       tracer->total_ms("harness.add_region") +
                           tracer->total_ms("harness.add_host_in_region") +
                           tracer->total_ms("harness.enable_sharding") +
                           tracer->total_ms("harness.capture"),
                       "ms"});
    o.layer.push_back({"vca.join_ms",
                       tracer->total_ms("vca.add_client") +
                           tracer->total_ms("vca.start"),
                       "ms"});
    o.layer.push_back({"core.run_ms", tracer->total_ms("core.run_until"), "ms",
                       nw});
    o.layer.push_back({"stats.collect_ms", tracer->total_ms("stats."), "ms"});
  }
  return o;
}

}  // namespace vcaperf
