// The sweep engine's contract: parallel execution is an implementation
// detail, never observable in the results — a --jobs 8 run must produce
// byte-identical output to --jobs 1, and both must match the pre-sweep
// serial code path (a plain loop over the scenario runner).
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "harness/scenario.h"
#include "harness/sweep.h"
#include "stats/table.h"

namespace vca {
namespace {

TEST(SweepTest, ResultsComeBackInSubmissionOrder) {
  // Early jobs sleep longest, so with any real parallelism (or work
  // stealing) completion order inverts submission order.
  std::vector<int> jobs;
  for (int i = 0; i < 64; ++i) jobs.push_back(i);
  auto results = Sweep::run(
      jobs,
      [](const int& i) {
        std::this_thread::sleep_for(std::chrono::microseconds((64 - i) * 50));
        return i * i;
      },
      8);
  ASSERT_EQ(results.size(), jobs.size());
  for (int i = 0; i < 64; ++i) EXPECT_EQ(results[static_cast<size_t>(i)], i * i);
}

TEST(SweepTest, FirstSubmittedErrorWinsDeterministically) {
  std::vector<int> jobs{0, 1, 2, 3, 4, 5, 6, 7};
  for (int run = 0; run < 3; ++run) {
    try {
      Sweep::run(
          jobs,
          [](const int& i) -> int {
            if (i == 3 || i == 6) {
              throw std::runtime_error("job " + std::to_string(i));
            }
            return i;
          },
          4);
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job 3");  // lowest index, not first-to-fail
    }
  }
}

TEST(SweepTest, ZeroJobsAndEmptyInputAreFine) {
  EXPECT_TRUE(Sweep::run(std::vector<int>{}, [](const int& i) { return i; })
                  .empty());
  auto r = Sweep::run(std::vector<int>{41}, [](const int& i) { return i + 1; },
                      0);  // 0 => default_jobs()
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], 42);
  EXPECT_GE(default_jobs(), 1);
}

TEST(SweepTest, ParseArgs) {
  const char* argv[] = {"bench", "--jobs", "8", "--other", "x",
                        "--json", "/tmp/out.json"};
  SweepOptions o = parse_sweep_args(7, const_cast<char**>(argv));
  EXPECT_EQ(o.jobs, 8);
  EXPECT_EQ(o.json_path, "/tmp/out.json");
  SweepOptions d = parse_sweep_args(1, const_cast<char**>(argv));
  EXPECT_EQ(d.jobs, 0);
  EXPECT_EQ(d.shards, 1);
  EXPECT_TRUE(d.json_path.empty());
}

// --shards is a worker-thread count: an integer >= 1. Anything else is a
// usage error (exit 2), never a silent fallback to some other value.
TEST(SweepTest, ParseArgsShards) {
  const char* ok[] = {"bench", "--shards", "4"};
  EXPECT_EQ(parse_sweep_args(3, const_cast<char**>(ok)).shards, 4);
  for (const char* bad : {"abc", "0", "-1", "2x", ""}) {
    SCOPED_TRACE(bad);
    const char* argv[] = {"bench", "--shards", bad};
    EXPECT_EXIT(parse_sweep_args(3, const_cast<char**>(argv)),
                testing::ExitedWithCode(2), "--shards");
  }
  const char* missing[] = {"bench", "--shards"};
  EXPECT_EXIT(parse_sweep_args(2, const_cast<char**>(missing)),
              testing::ExitedWithCode(2), "--shards");
}

// --jobs is a worker-thread count too: an integer >= 1, never atoi's
// silent 0 ("every core") for a typo.
TEST(SweepTest, ParseArgsJobs) {
  const char* ok[] = {"bench", "--jobs", "3"};
  EXPECT_EQ(parse_sweep_args(3, const_cast<char**>(ok)).jobs, 3);
  for (const char* bad : {"abc", "0", "-1", "2x", ""}) {
    SCOPED_TRACE(bad);
    const char* argv[] = {"bench", "--jobs", bad};
    EXPECT_EXIT(parse_sweep_args(3, const_cast<char**>(argv)),
                testing::ExitedWithCode(2), "--jobs");
  }
  const char* missing[] = {"bench", "--jobs"};
  EXPECT_EXIT(parse_sweep_args(2, const_cast<char**>(missing)),
              testing::ExitedWithCode(2), "--jobs");
}

// A representative bench grid, shortened: capacity x profile x rep over
// real two-party simulations.
std::vector<TwoPartyConfig> grid_jobs() {
  std::vector<TwoPartyConfig> jobs;
  for (double cap : {0.5, 1.0}) {
    for (const std::string profile : {"meet", "zoom"}) {
      for (int rep = 0; rep < 2; ++rep) {
        TwoPartyConfig cfg;
        cfg.profile = profile;
        cfg.seed = 1200 + static_cast<uint64_t>(rep);
        cfg.c1_down = DataRate::mbps_d(cap);
        cfg.duration = Duration::seconds(25);
        cfg.measure_from = Duration::seconds(5);
        jobs.push_back(cfg);
      }
    }
  }
  return jobs;
}

// Render results the way a bench table cell would — full precision, so
// any cross-thread nondeterminism shows up as a byte difference.
std::string render(const std::vector<TwoPartyResult>& results) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& r : results) {
    os << r.c1_up_mbps << "|" << r.c1_down_mbps << "|"
       << r.c1_received.median_fps << "|" << r.c1_received.median_width << "|"
       << r.c1_received.freeze_ratio << "|" << r.c2_received.fir_upstream
       << "\n";
  }
  return os.str();
}

TEST(SweepTest, BenchGridByteIdenticalAcrossJobCounts) {
  std::vector<TwoPartyConfig> jobs = grid_jobs();

  // The pre-sweep serial code path: a plain loop over the runner.
  std::vector<TwoPartyResult> serial;
  for (const auto& cfg : jobs) serial.push_back(run_two_party(cfg));

  auto jobs1 = Sweep::run(jobs, run_two_party, 1);
  auto jobs8 = Sweep::run(jobs, run_two_party, 8);

  std::string expect = render(serial);
  EXPECT_EQ(render(jobs1), expect);
  EXPECT_EQ(render(jobs8), expect);
}

std::string file_without_timing(const std::string& path) {
  std::ifstream f(path);
  std::string line, out;
  while (std::getline(f, line)) {
    if (line.find("\"timing\"") == std::string::npos) out += line + "\n";
  }
  return out;
}

TEST(SweepTest, JsonReportByteIdenticalAcrossJobCounts) {
  std::vector<TwoPartyConfig> jobs = grid_jobs();
  auto report_for = [&](int n_jobs, const std::string& path) {
    SweepOptions opts;
    opts.jobs = n_jobs;
    opts.json_path = path;
    BenchReport report("sweep_test", opts);
    report.begin_section("grid", "downlink grid");
    auto results = Sweep::run(jobs, run_two_party, n_jobs);
    for (size_t i = 0; i < jobs.size(); i += 2) {
      std::vector<double> vals = {results[i].c1_down_mbps,
                                  results[i + 1].c1_down_mbps};
      report.add_cell({{"profile", jobs[i].profile},
                       {"cap_mbps", fmt(jobs[i].c1_down.mbps_f(), 1)}},
                      {{"down_mbps", confidence_interval(vals)}});
    }
    ASSERT_TRUE(report.finish());
  };
  std::string p1 = testing::TempDir() + "/sweep_j1.json";
  std::string p8 = testing::TempDir() + "/sweep_j8.json";
  report_for(1, p1);
  report_for(8, p8);
  std::string a = file_without_timing(p1);
  EXPECT_EQ(a, file_without_timing(p8));
  EXPECT_FALSE(a.empty());
  // The stripped-out timing line exists in the raw file.
  std::ifstream f(p8);
  std::string raw((std::istreambuf_iterator<char>(f)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(raw.find("\"timing\""), std::string::npos);
  EXPECT_NE(raw.find("\"events_per_sec\""), std::string::npos);
}

TEST(SweepTest, SimEventCounterAdvances) {
  uint64_t before = sim_events_total();
  TwoPartyConfig cfg;
  cfg.duration = Duration::seconds(5);
  cfg.measure_from = Duration::seconds(1);
  run_two_party(cfg);
  EXPECT_GT(sim_events_total(), before);
}

}  // namespace
}  // namespace vca
