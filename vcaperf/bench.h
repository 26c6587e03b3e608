// vcaperf: the repository's benchmark. Shared types for the four
// workloads (see README.md): the metrics a run reports, the totals its
// output checks compare, and the span tracer the traced run uses.
//
// The benchmark only calls the public API of src/; every span it records
// wraps one such call (or a batch of short calls) from the outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace vcaperf {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 1;  // observations behind the value
};

// Run parameters shared by every workload.
struct Params {
  uint64_t seed = 1;
  int seconds = 10;   // sizes the fixed amount of work (see README.md)
  bool quick = false; // small inputs for the benchmark's own tests
  int threads = 1;    // hardware threads available (sweep workers)
};

// Deterministic outcome of a run: named totals the checks compare, plus a
// digest folded over the workload's final outputs.
struct Totals {
  std::map<std::string, int64_t> values;
  uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis

  void set(const std::string& name, int64_t v) { values[name] = v; }
  void fold_bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      digest ^= b[i];
      digest *= 1099511628211ull;
    }
  }
  template <typename T>
  void fold(const T& v) {
    fold_bytes(&v, sizeof(v));
  }
  bool operator==(const Totals&) const = default;
};

// One span: a call (or batch of calls) into a layer.
struct Span {
  std::string name;  // "<layer>.<call>", e.g. "core.run_until"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;
  int tid = 0;  // small per-thread index
};

// In-memory span recorder; written out once at exit. Thread-safe: sweep
// workers record job spans concurrently. A null Tracer* means untraced,
// and Scope then reads no clock at all.
class Tracer {
 public:
  explicit Tracer(int run_id) : run_id_(run_id) {}

  class Scope {
   public:
    Scope(Tracer* t, const char* name, int64_t parent = kInherit);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int64_t id() const { return id_; }

   private:
    Tracer* t_;
    int64_t id_ = -1;
    int64_t saved_current_ = -1;
  };
  static constexpr int64_t kInherit = -2;

  std::vector<Span> spans() const;

  // Sum of span durations whose name equals `name` or starts with
  // `prefix.` (prefix match when name ends in '.').
  double total_ms(const std::string& name_or_prefix) const;

  // Chrome trace-event JSON (Perfetto and chrome://tracing open it).
  bool write_chrome(const std::string& path) const;

  struct SelfRow {
    std::string name;
    int64_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  // Per span name and per layer (name prefix up to the first '.'):
  // self time = duration minus the part of it covered by child spans.
  std::vector<SelfRow> self_times(bool by_layer) const;
  // Wall time covered by root spans (spans without a parent).
  double root_union_ms() const;

 private:
  int64_t open(const char* name, int64_t parent, int64_t start);
  void close(int64_t id, int64_t end);

  int run_id_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Everything one workload run produces.
struct Outcome {
  std::vector<Metric> metrics;       // end-to-end metrics
  std::vector<Metric> layer;         // per-layer metrics (times: traced)
  Totals totals;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // failed output checks, readable
  double e2e_ms = 0.0;       // wall time of the measured phase
  double generator_ms = 0.0; // untimed input generation
};

void check(Outcome* o, bool ok, const std::string& what);

// Percentile by linear interpolation (q in [0, 1]); 0 for no samples.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

double peak_rss_mb();

// Text form of an outcome (end-to-end time, counts, totals, failures and
// metric values, not per-layer metrics), for a forked child to hand its
// result to the parent.
std::string to_text(const Outcome& o);
Outcome from_text(const std::string& text);

// Runs `body` in a forked child and returns the text it produced, or
// nullopt if the child failed. The child's memory, and so its share of
// the peak resident set, stays out of this process.
std::optional<std::string> run_in_child(
    const std::function<std::string()>& body);

// Runs the same work `repeats` times: body(true, o) here, in this process
// (the traced run, whose totals and layer counters are reported), then
// body(false, &c) once in each of repeats - 1 forked children, one at a
// time, each on memory of its own. Every repeat must reproduce the first
// run's totals and the count of each raw sample (a metric in o.metrics);
// its failures, attempted and failed operations add to `o`. Returns the
// outcome of every run that completed, the first first.
std::vector<Outcome> run_repeats(
    int repeats, const std::string& what,
    const std::function<void(bool first, Outcome* out)>& body, Outcome* o);

// The raw samples named `name` in o.metrics, in order.
std::vector<double> raw_values(const Outcome& o, const std::string& name);

// The raw samples named `name` of every run, grouped by index: element i
// holds sample i of each run. The runs did the same work, so sample i is
// the same piece of it in each.
std::vector<std::vector<double>> by_index(const std::vector<Outcome>& runs,
                                          const std::string& name);

// Workloads. `tracer` is null on the untraced pass.
Outcome run_conf_city(const Params& p, Tracer* tracer);
Outcome run_paper_sweep(const Params& p, Tracer* tracer);
Outcome run_analyzer_churn(const Params& p, Tracer* tracer);
Outcome run_capture_replay(const Params& p, Tracer* tracer,
                           const std::string& work_dir);

}  // namespace vcaperf
