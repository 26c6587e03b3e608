#include "harness/sweep.h"

#include "core/perf.h"

#include <atomic>
#include <climits>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include <sys/resource.h>

namespace vca {

namespace {

std::atomic<uint64_t> g_sim_events{0};
std::atomic<uint64_t> g_invariant_violations{0};

int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// JSON string escaping for the label/metric names we emit (ASCII tables,
// profile names, paths).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_num(double v) {
  std::ostringstream ss;
  ss.precision(12);
  ss << v;
  return ss.str();
}

// --jobs/--shards value: an integer >= 1, else a usage message and exit 2
// (a typo must not silently pick some other thread count).
int count_arg(const char* prog, const char* flag, const char* what,
              const char* v) {
  if (v == nullptr) v = "";
  char* end = nullptr;
  long n = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || n < 1 || n > INT_MAX) {
    std::fprintf(stderr,
                 "usage: %s [%s N]: N is the %s, an integer >= 1 (got '%s')\n",
                 prog, flag, what, v);
    std::exit(2);
  }
  return static_cast<int>(n);
}

}  // namespace

int default_jobs() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

SweepOptions parse_sweep_args(int argc, char** argv) {
  SweepOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(argv[i], "--shards") == 0) {
      opts.shards = count_arg(argv[0], "--shards",
                              "worker-thread count per simulation", next);
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      opts.jobs = count_arg(argv[0], "--jobs",
                            "worker-thread count across sweep cells", next);
    } else if (next == nullptr) {
      break;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opts.json_path = next;
    }
  }
  return opts;
}

void note_sim_events(uint64_t n) {
  g_sim_events.fetch_add(n, std::memory_order_relaxed);
}

uint64_t sim_events_total() {
  return g_sim_events.load(std::memory_order_relaxed);
}

void note_invariant_violations(uint64_t n) {
  if (n) g_invariant_violations.fetch_add(n, std::memory_order_relaxed);
}

uint64_t invariant_violations_total() {
  return g_invariant_violations.load(std::memory_order_relaxed);
}

void Sweep::run_indexed(size_t n, int n_threads,
                        const std::function<void(size_t)>& body) {
  if (n == 0) return;
  size_t workers = static_cast<size_t>(n_threads > 0 ? n_threads
                                                     : default_jobs());
  if (workers > n) workers = n;
  if (workers <= 1) {
    // The serial path stays thread-free: it is both the --jobs 1 baseline
    // the determinism tests compare against and the fast path on
    // single-core machines.
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<size_t> next{0};
  std::vector<std::exception_ptr> errors(n);
  auto worker = [&] {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  // Deterministic error reporting: the first failing submission wins,
  // independent of which worker hit it.
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

BenchReport::BenchReport(std::string bench, SweepOptions opts)
    : bench_(std::move(bench)),
      opts_(std::move(opts)),
      events_at_start_(sim_events_total()),
      violations_at_start_(invariant_violations_total()),
      link_packets_at_start_(perf::link_packets_total()),
      allocs_at_start_(perf::alloc_calls()),
      wall_start_ns_(wall_now_ns()) {}

void BenchReport::begin_section(const std::string& id,
                                const std::string& title) {
  sections_.push_back({id, title, {}});
}

void BenchReport::add_cell(Labels labels, Metrics metrics) {
  if (sections_.empty()) begin_section("default", "");
  sections_.back().cells.push_back({std::move(labels), std::move(metrics)});
}

bool BenchReport::finish() {
  double wall_sec =
      static_cast<double>(wall_now_ns() - wall_start_ns_) * 1e-9;
  uint64_t events = sim_events_total() - events_at_start_;
  uint64_t violations = invariant_violations_total() - violations_at_start_;
  double eps = wall_sec > 0.0 ? static_cast<double>(events) / wall_sec : 0.0;
  int jobs = opts_.jobs > 0 ? opts_.jobs : default_jobs();
  std::cerr << bench_ << ": wall " << json_num(wall_sec) << " s, "
            << events << " sim events, " << json_num(eps)
            << " events/s, jobs " << jobs << "\n";
  if (violations) {
    std::cerr << bench_ << ": " << violations
              << " invariant violation(s) — failing the report\n";
  }
  if (opts_.json_path.empty()) return violations == 0;

  std::ofstream f(opts_.json_path);
  if (!f) {
    std::cerr << bench_ << ": cannot write " << opts_.json_path << "\n";
    return false;
  }
  f << "{\n  \"bench\": \"" << json_escape(bench_) << "\",\n";
  f << "  \"sections\": [\n";
  for (size_t s = 0; s < sections_.size(); ++s) {
    const Section& sec = sections_[s];
    f << "    {\n      \"id\": \"" << json_escape(sec.id)
      << "\",\n      \"title\": \"" << json_escape(sec.title)
      << "\",\n      \"cells\": [\n";
    for (size_t c = 0; c < sec.cells.size(); ++c) {
      const Cell& cell = sec.cells[c];
      f << "        {\"labels\": {";
      for (size_t i = 0; i < cell.labels.size(); ++i) {
        if (i) f << ", ";
        f << "\"" << json_escape(cell.labels[i].first) << "\": \""
          << json_escape(cell.labels[i].second) << "\"";
      }
      f << "}, \"metrics\": {";
      for (size_t i = 0; i < cell.metrics.size(); ++i) {
        if (i) f << ", ";
        const ConfidenceInterval& ci = cell.metrics[i].second;
        f << "\"" << json_escape(cell.metrics[i].first) << "\": {\"mean\": "
          << json_num(ci.mean) << ", \"lo\": " << json_num(ci.lo)
          << ", \"hi\": " << json_num(ci.hi) << "}";
      }
      f << "}}" << (c + 1 < sec.cells.size() ? "," : "") << "\n";
    }
    f << "      ]\n    }" << (s + 1 < sections_.size() ? "," : "") << "\n";
  }
  f << "  ],\n";
  // Deterministic for a deterministic sim (it counts sim-level facts, not
  // wall-clock), so it sits OUTSIDE the strippable timing line.
  f << "  \"invariant_violations\": " << violations << ",\n";
  // One line, run-dependent: strip with `grep -v '"timing"'` when diffing.
  // Perf-counter fields (core/perf.h): peak scheduler heap occupancy and
  // link-delivered packets across all runs this report covers, plus the
  // global-new call count — nonzero only when vca_perf_alloc is linked in.
  uint64_t link_pkts = perf::link_packets_total() - link_packets_at_start_;
  double pps =
      wall_sec > 0.0 ? static_cast<double>(link_pkts) / wall_sec : 0.0;
  uint64_t allocs = perf::alloc_tracking_active()
                        ? perf::alloc_calls() - allocs_at_start_
                        : 0;
  // Peak resident set of the whole process (Linux reports ru_maxrss in KB).
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  f << "  \"timing\": {\"jobs\": " << jobs << ", \"wall_clock_sec\": "
    << json_num(wall_sec) << ", \"peak_rss_mb\": " << json_num(peak_rss_mb)
    << ", \"sim_events\": " << events
    << ", \"events_per_sec\": " << json_num(eps)
    << ", \"peak_heap_events\": " << perf::peak_heap_events()
    << ", \"link_packets\": " << link_pkts
    << ", \"link_packets_per_sec\": " << json_num(pps)
    << ", \"heap_alloc_calls\": " << allocs
    << ", \"alloc_tracking\": "
    << (perf::alloc_tracking_active() ? "true" : "false");
  // Per-shard breakdown (sharded core runs only). Lives INSIDE the one
  // timing line so the strippable-timing-line diff contract holds:
  // events and events/sec per shard, event-heap high-water mark, and
  // cross-shard mailbox handoffs (totals across every sharded run this
  // report covers; shard 0 is the control strand).
  if (perf::shard_slots() > 0) {
    f << ", \"shards\": [";
    for (int s = 0; s < perf::shard_slots(); ++s) {
      uint64_t sev = perf::shard_events(s);
      uint64_t hoff = perf::shard_handoffs(s);
      if (s) f << ", ";
      f << "{\"shard\": " << s << ", \"events\": " << sev
        << ", \"events_per_sec\": "
        << json_num(wall_sec > 0.0 ? static_cast<double>(sev) / wall_sec
                                   : 0.0)
        << ", \"peak_heap_events\": " << perf::shard_peak_heap(s)
        << ", \"handoffs\": " << hoff << ", \"handoffs_per_sec\": "
        << json_num(wall_sec > 0.0 ? static_cast<double>(hoff) / wall_sec
                                   : 0.0)
        << "}";
    }
    f << "]";
  }
  f << "}\n";
  f << "}\n";
  return f.good() && violations == 0;
}

}  // namespace vca
