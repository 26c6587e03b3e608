// StreamingAnalyzer: the online inference service (tentpole of ROADMAP
// item 2). Ingests packets one at a time — from a live TraceRecorder
// sink or a chunked pcap replay, never a whole-file load — and emits:
//
//   * per-second WindowReports for every active promoted flow (rate,
//     fps, freeze events observed in that window), and
//   * a final StreamReport per flow generation, flushed when the flow is
//     evicted (LRU pressure or idle timeout) or at finish().
//
// State is strictly bounded by StreamingConfig::memory_cap_bytes via the
// sketch-gated FlowTable; the per-flow estimators are the same
// incremental core the offline pipeline runs (analysis/inference.h).
// Report order is deterministic: windows emit in key
// order per window roll, final reports in eviction order (LRU order is
// packet-arrival order, idle/flush sweeps sort by key), so the same
// input — tapped live or replayed from a pcap — produces byte-identical
// report streams (enforced by streaming_analyzer_test).
//
// By default reports accumulate in vectors for tests and the CLI; a
// long-running service installs sinks instead, keeping the analyzer's
// own output O(1).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "streaming/flow_table.h"
#include "trace/pcap.h"

namespace vca {

// One promoted flow's activity during one window. fps / rate_mbps are
// over the window span, so a 1 s window reads directly as per-second.
struct WindowReport {
  int64_t window_start_ns = 0;
  StreamKey key;
  StreamKind kind = StreamKind::kUnknown;  // provisional classification
  int64_t packets = 0;
  int64_t ip_bytes = 0;
  int frames = 0;
  int freeze_events = 0;
  double fps = 0.0;
  double rate_mbps = 0.0;

  bool operator==(const WindowReport&) const = default;
};

class StreamingAnalyzer {
 public:
  using WindowSink = std::function<void(const WindowReport&)>;
  using ReportSink = std::function<void(const StreamReport&)>;

  struct Stats {
    int64_t records_in = 0;
    int64_t parse_failures = 0;
    int64_t packets = 0;  // parsed and routed
    int64_t windows_emitted = 0;
    int64_t final_reports = 0;
  };

  explicit StreamingAnalyzer(StreamingConfig cfg = {});

  // Install sinks to stream reports out instead of accumulating them.
  void set_window_sink(WindowSink sink) { window_sink_ = std::move(sink); }
  void set_report_sink(ReportSink sink);

  // Ingest one captured record (parses the synthesized headers).
  void on_record(const PacketRecord& rec);
  // Ingest an already-parsed packet (synthetic workloads skip the byte
  // layer; the parse cost is not what those benches measure).
  void on_parsed(const ParsedPacket& p);

  // Live tap adapter: recorder.set_sink(analyzer.sink()) turns the
  // simulated tcpdump into a no-accumulation feed of this analyzer
  // (matches TraceRecorder::RecordSink).
  std::function<void(const PacketRecord&)> sink() {
    return [this](const PacketRecord& rec) { on_record(rec); };
  }

  // Replays a pcap file through the chunked reader; false if the file
  // cannot be opened. Does NOT finish() — callers may replay several
  // files into one analyzer before flushing.
  bool replay_pcap(const std::string& path);

  // End of input: closes the current window and flushes every live flow.
  void finish();

  const std::vector<StreamReport>& reports() const { return reports_; }
  const std::vector<WindowReport>& windows() const { return windows_; }
  const Stats& stats() const { return stats_; }
  const FlowTable& table() const { return table_; }
  const StreamingConfig& config() const { return cfg_; }

 private:
  void roll_windows(int64_t ts_ns);
  void emit_window(int64_t window_start_ns);

  StreamingConfig cfg_;
  FlowTable table_;
  int64_t window_end_ns_ = -1;
  WindowSink window_sink_;
  ReportSink report_sink_;
  std::vector<StreamReport> reports_;
  std::vector<WindowReport> windows_;
  Stats stats_;
};

}  // namespace vca
