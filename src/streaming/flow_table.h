// Bounded flow table for the streaming analyzer: sketch-gated admission,
// LRU + idle eviction, final-report flush.
//
// Memory model (the DESIGN.md "streaming inference" entry derives the
// numbers): total footprint = sketch grid + max_flows x per-flow cost,
// where per-flow cost is the bounded StreamAccumulator (its seq-window
// ring, fps histogram, and freeze gap ring are all fixed-size) plus the
// hash-map node and LRU node. max_flows is computed from the configured
// memory cap, and the map's buckets are reserved up front, so processing
// a million distinct flows never allocates past the cap: mice stay in
// the sketch, heavy hitters get promoted, and when the table is full the
// least-recently-active flow is flushed (its final StreamReport emitted)
// to make room. A flow that returns after eviction re-promotes on its
// next packet — its sketch counters persist — and starts a fresh
// generation whose report covers only post-rejoin packets, so nothing is
// double-counted across generations.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <vector>

#include "analysis/inference.h"
#include "streaming/sketch.h"

namespace vca {

struct StreamingConfig {
  // Hard cap on the analyzer's working state (sketch + flow table).
  size_t memory_cap_bytes = 32 * 1024 * 1024;
  // Sketch min-estimate a flow must reach to earn full per-flow state.
  // 1 admits every flow on first sight (useful when replaying a curated
  // capture where every flow matters).
  uint32_t promote_packets = 8;
  // A promoted flow silent this long is evicted at the next window roll.
  int64_t idle_timeout_ns = 15'000'000'000;
  // Windowed-report period.
  int64_t window_ns = 1'000'000'000;
  // Sketch geometry: width counters/row (rounded up to a power of two).
  size_t sketch_width = 1 << 15;
  int sketch_depth = 4;
};

class FlowTable {
 public:
  using ReportSink = std::function<void(const StreamReport&)>;

  struct Stats {
    int64_t sketch_only_packets = 0;  // charged to the sketch, no state yet
    int64_t promoted = 0;             // includes re-promotions after evict
    int64_t evicted_lru = 0;
    int64_t evicted_idle = 0;
    size_t peak_live_flows = 0;
  };

  explicit FlowTable(const StreamingConfig& cfg);

  // Every evicted or flushed flow's final report goes here.
  void set_report_sink(ReportSink sink) { report_sink_ = std::move(sink); }

  // Routes one parsed packet: charges the sketch, promotes/evicts as
  // needed, feeds the flow's accumulator when promoted. Returns the
  // accumulator, or nullptr while the flow is below the promotion bar.
  StreamAccumulator* on_packet(const StreamKey& key, const ParsedPacket& p);

  // Evicts (with final-report flush) every flow idle past the timeout.
  void sweep_idle(int64_t now_ns);

  // Flushes all remaining flows, in key order. The sketch survives (a
  // flush is end-of-input, not state reset).
  void flush_all();

  // Iterates live flows in deterministic (key-sorted) order.
  void for_each_live(
      const std::function<void(const StreamKey&, StreamAccumulator&)>& fn);

  size_t live_flows() const { return flows_.size(); }
  size_t max_flows() const { return max_flows_; }
  const Stats& stats() const { return stats_; }
  const CountMinSketch& sketch() const { return sketch_; }

  // The budgeting constant: conservative ceiling on one promoted flow's
  // heap footprint (bounded StreamAccumulator ~2.6 KB incl. its 512-seq
  // ring, plus map node, LRU node, and allocator slack).
  static constexpr size_t kPerFlowCostBytes = 4096;

 private:
  struct KeyHash {
    size_t operator()(const StreamKey& k) const {
      return static_cast<size_t>(stream_key_hash(k));
    }
  };
  struct Entry {
    StreamAccumulator acc;
    std::list<StreamKey>::iterator lru_it;
  };

  void evict(const StreamKey& key, bool idle);

  StreamingConfig cfg_;
  CountMinSketch sketch_;
  size_t max_flows_;
  std::unordered_map<StreamKey, Entry, KeyHash> flows_;
  std::list<StreamKey> lru_;  // front = most recently active
  ReportSink report_sink_;
  Stats stats_;
};

}  // namespace vca
