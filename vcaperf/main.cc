// vcaperf: runs one benchmark workload and prints its metrics.
//
//   vcaperf --workload NAME --seed N --seconds S --trace 0|1
//           [--quick] [--out DIR]
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// twice, untraced then traced, checks that both produce the same totals,
// and prints the per-layer metrics with the tracing overhead and the
// time no span covers. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is nonzero when any output check failed.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace vcaperf {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric lists BENCHMARK.json declares, in its order.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"sim_rate", "sim_s/s"},
    {"pkt_rate", "pkt/s"},    {"peak_rss_mb", "MB"},
    {"job_p50_s", "s"},       {"job_p90_s", "s"},
    {"window_p50_ms", "ms"},  {"window_p95_ms", "ms"},
};

const MetricDef kPerLayer[] = {
    {"harness.build_ms", "ms"},
    {"vca.join_ms", "ms"},
    {"core.run_ms", "ms"},
    {"core.events", "count"},
    {"core.events_per_sim_s", "1/s"},
    {"core.peak_pending", "count"},
    {"net.link_pkts", "count"},
    {"net.link_queue_drops", "count"},
    {"net.link_drop_ratio", "ratio"},
    {"net.shard_handoffs", "count"},
    {"net.shard_imbalance", "ratio"},
    {"vca.sfu_forwarded_pkts", "count"},
    {"vca.peak_subscriptions", "count"},
    {"vca.relay_streams", "count"},
    {"vca.forwards_to_departed", "count"},
    {"transport.frames_decoded", "count"},
    {"transport.frames_lost", "count"},
    {"transport.media_bytes_sent", "bytes"},
    {"stats.collect_ms", "ms"},
    {"harness.sweep_wait_ms", "ms"},
    {"harness.job_ms.two_party", "ms"},
    {"harness.job_ms.disruption", "ms"},
    {"harness.job_ms.competition", "ms"},
    {"trace.read_ns_per_pkt", "ns"},
    {"analysis.parse_ns_per_pkt", "ns"},
    {"analysis.parse_failures", "count"},
    {"streaming.feed_ns_per_pkt", "ns"},
    {"streaming.finish_ms", "ms"},
    {"streaming.windows", "count"},
    {"streaming.promoted", "count"},
    {"streaming.evicted_lru", "count"},
    {"streaming.evicted_idle", "count"},
    {"streaming.sketch_only_pkts", "count"},
    {"streaming.peak_live_flows", "count"},
    {"streaming.repromote_ratio", "ratio"},
    {"bench.unattributed_ms", "ms"},
    {"bench.trace_overhead_ms", "ms"},
    {"bench.generator_ms", "ms"},
};

const char* const kWorkloads[] = {"conf_city", "paper_sweep", "analyzer_churn",
                                  "capture_replay"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  bool quick = false;
  std::string out = ".bench_build/results";
};

int usage(const std::string& why) {
  std::cerr << "vcaperf: " << why
            << "\nusage: vcaperf --workload "
               "conf_city|paper_sweep|analyzer_churn|capture_replay --seed N "
               "--seconds S --trace 0|1 [--quick] [--out DIR]\n";
  return 2;
}

bool parse_int(const char* s, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

// --- host block --------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

// A fixed integer kernel (hash mixing into a small table, the shape of a
// scheduler's hot loop) whose rate tells a slower host from slower code.
// Best of three, in million iterations per second.
double calibration_mops() {
  constexpr int kIters = 20'000'000;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<uint64_t> table(4096, 0);
    uint64_t x = 0x9e3779b97f4a7c15ull;
    int64_t t0 = now_ns();
    for (int i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table[x & 4095] += x >> 32;
    }
    double s = static_cast<double>(now_ns() - t0) * 1e-9;
    uint64_t sum = 0;
    for (uint64_t v : table) sum += v;
    if (sum == 42) std::cerr << "";  // keeps the loop observable
    best = std::max(best, kIters / s / 1e6);
  }
  return best;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string host_json() {
  std::ostringstream os;
  os << "{\"cores\":" << std::thread::hardware_concurrency()
     << ",\"cpu_model\":" << json_str(cpu_model())
     << ",\"compiler\":" << json_str(std::string("gcc ") + __VERSION__)
     << ",\"build_type\":" << json_str(VCAPERF_BUILD_TYPE)
     << ",\"calibration_mops\":" << num(calibration_mops()) << "}";
  return os.str();
}

// --- output ------------------------------------------------------------

// The declared metrics in order, taking values from `have`; a metric the
// workload does not exercise reads 0.
std::vector<Metric> complete(const MetricDef* defs, size_t n,
                             const std::vector<Metric>& have) {
  std::vector<Metric> out;
  for (size_t i = 0; i < n; ++i) {
    Metric m{defs[i].name, 0.0, defs[i].unit, 0};
    for (const Metric& h : have) {
      if (h.name == m.name) {
        m.value = h.value;
        m.samples = h.samples;
      }
    }
    out.push_back(m);
  }
  return out;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << json_str(ms[i].name) << ": {\"value\": "
       << num(ms[i].value) << ", \"unit\": " << json_str(ms[i].unit) << "}";
  }
  os << "}";
  return os.str();
}

std::string totals_json(const Totals& t) {
  std::ostringstream os;
  os << "{";
  for (const auto& [k, v] : t.values) os << json_str(k) << ": " << v << ", ";
  os << "\"digest\": \"" << std::hex << t.digest << std::dec << "\"}";
  return os.str();
}

void print_self_times(const Tracer& tr, double e2e_ms, std::ostream& os) {
  char line[256];
  for (bool by_layer : {true, false}) {
    os << (by_layer ? "self time by layer" : "self time by call")
       << " (ms; share of the traced end-to-end time):\n";
    for (const Tracer::SelfRow& r : tr.self_times(by_layer)) {
      std::snprintf(line, sizeof(line),
                    "  %-30s %8lld calls %12.3f total %12.3f self %6.1f%%\n",
                    r.name.c_str(), static_cast<long long>(r.calls),
                    r.total_ms, r.self_ms,
                    e2e_ms > 0 ? 100.0 * r.self_ms / e2e_ms : 0.0);
      os << line;
    }
  }
}

Outcome run(const std::string& w, const Params& p, Tracer* tr,
            const std::string& out_dir) {
  if (w == "conf_city") return run_conf_city(p, tr);
  if (w == "paper_sweep") return run_paper_sweep(p, tr);
  if (w == "analyzer_churn") return run_analyzer_churn(p, tr);
  return run_capture_replay(p, tr, out_dir + "/captures-seed" +
                                       std::to_string(p.seed));
}

// Runs the untraced pass in a forked child, so that it starts from the
// same cold process state as the traced pass that follows in the parent
// (first-touch page faults and allocator warm-up would otherwise favour
// whichever pass runs second).
Outcome run_untraced_in_child(const std::string& w, const Params& p,
                              const std::string& out_dir) {
  std::optional<std::string> msg =
      run_in_child([&] { return to_text(run(w, p, nullptr, out_dir)); });
  if (!msg) {
    Outcome o;
    o.failures.push_back("untraced pass did not complete");
    o.attempted = o.failed = 1;
    return o;
  }
  return from_text(*msg);
}

int main_impl(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto value = [&](long long lo, long long hi, long long* out) {
      return i + 1 < argc && parse_int(argv[++i], lo, hi, out);
    };
    long long v = 0;
    if (k == "--workload" && i + 1 < argc) {
      a.workload = argv[++i];
    } else if (k == "--seed") {
      if (!value(0, (1LL << 62), &v)) return usage("bad --seed");
      a.seed = static_cast<uint64_t>(v);
    } else if (k == "--seconds") {
      if (!value(1, 600, &v)) return usage("bad --seconds (1..600)");
      a.seconds = static_cast<int>(v);
    } else if (k == "--trace") {
      if (!value(0, 1, &v)) return usage("bad --trace (0 or 1)");
      a.trace = static_cast<int>(v);
    } else if (k == "--quick") {
      a.quick = true;
    } else if (k == "--out" && i + 1 < argc) {
      a.out = argv[++i];
    } else {
      return usage("unknown argument " + k);
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known |= a.workload == w;
  if (!known) return usage("unknown workload '" + a.workload + "'");

  std::error_code ec;
  std::filesystem::create_directories(a.out, ec);
  if (ec) return usage("cannot create " + a.out);

  Params p;
  p.seed = a.seed;
  p.seconds = a.seconds;
  p.quick = a.quick;
  p.threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  const std::string host = host_json();
  std::cout << "vcaperf " << a.workload << " seed=" << a.seed
            << " seconds=" << a.seconds << " trace=" << a.trace
            << (a.quick ? " quick" : "") << "\nhost " << host << "\n";

  Outcome plain = a.trace == 0 ? run(a.workload, p, nullptr, a.out)
                               : run_untraced_in_child(a.workload, p, a.out);
  Outcome result = plain;
  std::vector<Metric> shown;
  const std::string stem =
      a.out + "/" + a.workload + "-seed" + std::to_string(a.seed);
  if (a.trace == 0) {
    result.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    shown = complete(kEndToEnd, std::size(kEndToEnd), result.metrics);
  } else {
    Tracer tracer(static_cast<int>(getpid()));
    Outcome traced = run(a.workload, p, &tracer, a.out);
    result = traced;
    result.attempted += plain.attempted;
    result.failed += plain.failed;
    result.failures.insert(result.failures.begin(), plain.failures.begin(),
                           plain.failures.end());
    if (!(plain.totals == traced.totals)) {
      result.failures.push_back(
          "traced totals differ from untraced totals: " +
          totals_json(traced.totals) + " vs " + totals_json(plain.totals));
      result.failed = std::max<int64_t>(result.failed, traced.attempted);
    }
    result.layer.push_back({"bench.unattributed_ms",
                            traced.e2e_ms - tracer.root_union_ms(), "ms"});
    result.layer.push_back(
        {"bench.trace_overhead_ms", traced.e2e_ms - plain.e2e_ms, "ms"});
    result.layer.push_back({"bench.generator_ms", traced.generator_ms, "ms"});
    shown = complete(kPerLayer, std::size(kPerLayer), result.layer);

    std::cout << "traced end-to-end " << num(traced.e2e_ms)
              << " ms, untraced " << num(plain.e2e_ms) << " ms\n";
    print_self_times(tracer, traced.e2e_ms, std::cout);
    std::ofstream self(stem + ".selftime.txt");
    print_self_times(tracer, traced.e2e_ms, self);
    if (!tracer.write_chrome(stem + ".trace.json")) {
      std::cerr << "vcaperf: cannot write " << stem << ".trace.json\n";
    }
  }

  for (const Metric& m : shown) {
    std::cout << "metric " << a.workload << " " << m.name << " " << num(m.value)
              << " " << m.unit << " n=" << m.samples << "\n";
  }
  for (const auto& [k, v] : result.totals.values) {
    std::cout << "total " << k << " " << v << "\n";
  }
  std::cout << "total digest " << std::hex << result.totals.digest << std::dec
            << "\ngenerator " << num(result.generator_ms)
            << " ms (untimed input generation)\n";
  for (const std::string& f : result.failures) {
    std::cout << "CHECK FAILED: " << f << "\n";
  }
  const bool correct = result.failures.empty() && result.failed == 0;
  const double fail_ratio = result.attempted > 0
                                ? static_cast<double>(result.failed) /
                                      static_cast<double>(result.attempted)
                                : 0.0;
  std::cout << "fail_ratio " << num(fail_ratio) << " (" << result.failed
            << " of " << result.attempted << ")\n";

  std::ofstream rec(stem + "-trace" + std::to_string(a.trace) + ".json");
  rec << "{\"workload\": " << json_str(a.workload) << ", \"seed\": " << a.seed
      << ", \"seconds\": " << a.seconds << ", \"trace\": " << a.trace
      << ", \"quick\": " << (a.quick ? "true" : "false")
      << ", \"host\": " << host << ", \"correct\": "
      << (correct ? "true" : "false") << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"fail_ratio\": "
      << num(fail_ratio) << ", \"metrics\": " << metrics_json(shown)
      << ", \"totals\": " << totals_json(result.totals) << "}\n";

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << metrics_json(shown) << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace vcaperf

int main(int argc, char** argv) {
  try {
    return vcaperf::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "vcaperf: " << e.what() << "\n";
    return 1;
  }
}
