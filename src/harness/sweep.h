// Deterministic parallel sweep engine for the bench suite.
//
// Every figure/table in the paper is a sweep: a capacity grid x profile x
// repetition product of *independent* simulations. Each job gets its own
// EventScheduler/Network/Call universe, so jobs are share-nothing by
// construction and can run on a fixed-size thread pool; results are
// collected into submission-order slots, which makes the aggregated
// tables and JSON byte-identical to a serial run regardless of --jobs.
//
// Thread-safety audit (everything reachable from one simulation job):
//  * EventScheduler, Network, Link, Host, Call, SfuServer, VcaClient,
//    FlowCapture, FaultPlan: owned per-job, never shared across jobs.
//  * Rng: one root per Call, forked per component; no global engine.
//  * Profile registry (vca_profile/all_profile_names): pure functions
//    returning fresh values; the only statics in src/ are constexpr.
//  * SimInvariantChecker: per-Network; enforce() writes to stderr only on
//    violation (already a failed run) and is the sole print in src/.
//  * Determinism requires more than no-data-races: containers iterated
//    during a sim must not be keyed/ordered by pointers, since heap
//    layout varies across thread schedules (SfuServer::tick groups
//    viewers in insertion order for exactly this reason).
//  * Cross-thread state introduced here: one atomic sim-event counter
//    (note_sim_events), fed by the scenario runners for events/sec
//    accounting. Workers must never write to stdout; all rendering
//    happens on the aggregating thread.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/stats_math.h"

namespace vca {

// Command-line options shared by every bench binary and the CLI:
//   --jobs N     worker threads across sweep cells (N >= 1; default: hw
//                concurrency)
//   --shards N   worker threads INSIDE each simulation with region
//                shards (N >= 1; results do not depend on it)
//   --json PATH  machine-readable per-cell means/CIs + timing
struct SweepOptions {
  int jobs = 0;    // <= 0 means default_jobs()
  int shards = 1;  // threads per sharded simulation, >= 1
  std::string json_path;
};

// Extracts --jobs/--shards/--json from argv; unrelated flags are left for
// the caller's own parser. A --jobs or --shards value that is not an
// integer >= 1 prints a usage message and exits with status 2.
SweepOptions parse_sweep_args(int argc, char** argv);

int default_jobs();  // hardware_concurrency, at least 1

// Simulator events retired by scenario runs in this process (atomic;
// incremented by the run_* scenario runners from worker threads).
void note_sim_events(uint64_t n);
uint64_t sim_events_total();

// Invariant violations observed by SimInvariantChecker::enforce() across
// scenario runs in this process (atomic). BenchReport::finish() surfaces
// the window-delta in JSON and returns false when it is nonzero, so
// release builds (NDEBUG: assert is a no-op) still fail loudly instead of
// silently dropping the count.
void note_invariant_violations(uint64_t n);
uint64_t invariant_violations_total();

class Sweep {
 public:
  // Run fn(job) for every job on `n_threads` workers (<= 0 means
  // default_jobs()); returns results in submission order. Exceptions
  // propagate: the first throwing job (by submission index) rethrows
  // after the pool drains.
  template <typename Job, typename Fn>
  static auto run(const std::vector<Job>& jobs, Fn fn, int n_threads = 0)
      -> std::vector<std::invoke_result_t<Fn&, const Job&>> {
    using R = std::invoke_result_t<Fn&, const Job&>;
    std::vector<R> results(jobs.size());
    run_indexed(jobs.size(), n_threads,
                [&](size_t i) { results[i] = fn(jobs[i]); });
    return results;
  }

 private:
  static void run_indexed(size_t n, int n_threads,
                          const std::function<void(size_t)>& body);
};

// Accumulates the cells a bench binary prints and mirrors them into the
// --json file. Deterministic content (sections/cells) comes first; the
// run-dependent timing block is one final line, so a determinism diff is
// `grep -v '"timing"'`. Schema: see EXPERIMENTS.md.
class BenchReport {
 public:
  BenchReport(std::string bench, SweepOptions opts);

  void begin_section(const std::string& id, const std::string& title);

  using Labels = std::vector<std::pair<std::string, std::string>>;
  using Metrics = std::vector<std::pair<std::string, ConfidenceInterval>>;

  // One grid cell: axis coordinates plus named metrics. Scalars are
  // degenerate CIs (lo == mean == hi) via scalar() below.
  void add_cell(Labels labels, Metrics metrics);

  static ConfidenceInterval scalar(double v) { return {v, v, v}; }

  // Write the JSON file (if --json was given) and a timing note to
  // stderr. Returns false if the file could not be written OR if any
  // invariant violation was recorded since this report was constructed —
  // callers' existing `return report.finish() ? 0 : 1;` pattern turns
  // that into a nonzero process exit.
  bool finish();

 private:
  struct Cell {
    Labels labels;
    Metrics metrics;
  };
  struct Section {
    std::string id;
    std::string title;
    std::vector<Cell> cells;
  };

  std::string bench_;
  SweepOptions opts_;
  std::vector<Section> sections_;
  uint64_t events_at_start_ = 0;
  uint64_t violations_at_start_ = 0;
  uint64_t link_packets_at_start_ = 0;
  uint64_t allocs_at_start_ = 0;
  int64_t wall_start_ns_ = 0;
};

}  // namespace vca
