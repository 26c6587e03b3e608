// Sharded parallel event core: conservative synchronization for one
// simulation split across per-region EventSchedulers. It is the only
// engine for topologies with regions; a topology without regions has no
// shards and runs on its control scheduler alone.
//
// The partition is a property of the TOPOLOGY, not of the thread count:
// shard 0 is the control strand (core hosts, the router's own links,
// conference signaling/churn/fault timers) and each Network region gets
// one shard of its own. `--shards N` (N >= 1) only picks how many worker
// threads execute those logical shards, so results are byte-identical at
// any N — the determinism bar the acceptance harness enforces.
//
// Synchronization is classic conservative PDES with barrier epochs:
//   * lookahead L = the minimum propagation delay over the boundary
//     links (the links that hand packets to the core router). A packet
//     sent at time t anywhere arrives at another shard no earlier than
//     t + L, because Link's jitter extra is max(0, gaussian) and reorder
//     detours only add delay — nominal propagation is a hard lower bound.
//   * each epoch runs every shard over the half-open window [cur, h),
//     h <= min(control's next event, earliest pending event + L), in
//     parallel; events scheduled at exactly h wait for the next window.
//   * at the barrier the runner drains the cross-shard mailboxes (source
//     shard ascending, FIFO within a source — a deterministic merge
//     order), fires the barrier hook (deferred cross-region control
//     calls, e.g. Conference keyframe requests), then runs the control
//     strand up to and including h and drains again.
//
// Cross-shard packet handoff: a boundary Link whose in-flight packet
// targets a foreign shard posts (arrival time, packet, sink) into the
// per-(src,dst) mailbox instead of scheduling locally. Mailboxes are
// single-producer (the owning shard's thread, during a window) /
// single-consumer (the runner thread, at a barrier) — no locks on the
// hot path; the barrier's own mutex provides the happens-before edges.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/scheduler.h"
#include "core/time.h"
#include "net/link.h"
#include "net/packet.h"

namespace vca {

// Cross-shard packet mailboxes plus the node -> shard map.
class ShardBus {
 public:
  ShardBus() { add_shard(); }  // shard 0: the control strand

  // Register one more shard (topology-build time only). Returns its index.
  int add_shard();
  int shards() const { return n_; }

  void set_node_shard(NodeId node, int shard) { node_shard_[node] = shard; }
  int shard_of(NodeId node) const {
    auto it = node_shard_.find(node);
    return it != node_shard_.end() ? it->second : 0;
  }

  // Post a packet crossing from shard `src` into shard `dst`, arriving at
  // `at`. Called only from shard src's thread during a window (or from
  // the runner thread while workers are parked).
  void post(int src, int dst, TimePoint at, PacketSink* sink, Packet p);

  // Drain every mailbox targeting `dst` into its scheduler: sources in
  // ascending order, entries in post order. Runner thread only, at a
  // barrier. Packets are parked in per-shard arrival pools (a Packet does
  // not fit the scheduler's inline closure) and freed on delivery.
  void drain_into(int dst, EventScheduler* sched);

  bool any_pending() const;
  uint64_t handoffs_from(int src) const {
    return handoffs_[static_cast<size_t>(src)];
  }
  uint64_t handoffs_total() const;

 private:
  struct Entry {
    TimePoint at;
    PacketSink* sink = nullptr;
    Packet p;
  };
  struct ArrivalSlot {
    PacketSink* sink = nullptr;
    Packet p;
    uint32_t next_free = kNoSlot;
  };
  static constexpr uint32_t kNoSlot = 0xffffffff;
  // Per-destination arrival pool: slots are filled by the runner at a
  // barrier and emptied by the destination shard's thread mid-window;
  // the barrier orders the two, so no slot is ever touched concurrently.
  struct ArrivalPool {
    std::vector<ArrivalSlot> slots;
    uint32_t free_head = kNoSlot;
  };

  void deliver_arrival(int dst, uint32_t slot);

  int n_ = 0;
  std::vector<std::vector<Entry>> boxes_;  // [src * n_ + dst]
  std::vector<ArrivalPool> pools_;         // [dst]
  std::vector<uint64_t> handoffs_;         // [src]
  std::unordered_map<NodeId, int> node_shard_;
};

// Drives the control scheduler plus the region shards through barrier
// epochs, on a pool of persistent worker threads (threads == 1 runs the
// shard windows inline — same logical partition, same results).
class ShardRunner {
 public:
  struct Options {
    int threads = 1;
  };

  // `shards[i]` is the scheduler of shard i+1; `lookahead` must be a hard
  // lower bound on cross-shard packet latency (Network computes it as the
  // minimum boundary-link propagation delay).
  ShardRunner(EventScheduler* control, std::vector<EventScheduler*> shards,
              ShardBus* bus, Duration lookahead, Options opt);
  ~ShardRunner();

  ShardRunner(const ShardRunner&) = delete;
  ShardRunner& operator=(const ShardRunner&) = delete;

  // Runs at every barrier after the mailbox drain and before the control
  // strand — the slot for deferred cross-shard control calls.
  void set_barrier_hook(std::function<void()> hook) {
    barrier_hook_ = std::move(hook);
  }

  // Advance every shard to `end` (events at exactly `end` included, like
  // EventScheduler::run_until).
  void run_until(TimePoint end);

  // run_until under a SHARED event budget: the cap covers events
  // dispatched by the control strand and every shard together (the
  // fuzzer's event-storm oracle; see the regression test). Returns false
  // when the budget is exhausted. The remaining-budget slice handed to
  // each shard is computed before the window from the epoch-start total,
  // so the verdict is identical at any worker-thread count.
  bool run_until_capped(TimePoint end, uint64_t max_events);

  uint64_t events_processed() const;
  int shard_count() const { return static_cast<int>(shards_.size()) + 1; }

 private:
  struct WindowJob {
    TimePoint end;
    uint64_t cap = 0;
    bool inclusive = false;  // final pass: run_until (<=) not run_window (<)
  };

  bool drive(TimePoint end, uint64_t max_events);
  void run_shard_window(size_t idx);
  void execute_window(const WindowJob& job);
  void worker_main(size_t worker_index);

  EventScheduler* control_;
  std::vector<EventScheduler*> shards_;
  ShardBus* bus_;
  Duration lookahead_;
  std::function<void()> barrier_hook_;

  // Barrier state. Workers sleep on cv_start_ until the epoch generation
  // advances, run their strided share of shards for the posted window,
  // then bump done_ and sleep again. The runner publishes the window
  // under mu_ and collects per-shard dispatch counts after done_ == all.
  int threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  uint64_t generation_ = 0;
  size_t done_ = 0;
  bool quit_ = false;
  WindowJob job_;
  std::vector<uint64_t> window_dispatched_;  // [shard index - 1]
};

}  // namespace vca
