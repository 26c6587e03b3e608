// vcabench_fuzz: seed-driven scenario fuzzer driver (ROADMAP item 5).
//
//   vcabench_fuzz --seeds 256 [--seed-base 1] [--jobs J] [--json PATH]
//                 [--shrink] [--inject-wedge] [--event-budget N]
//                 [--shards S]   worker threads for cascaded scenarios
//                                (default 1; results identical at any S)
//   vcabench_fuzz --replay '<spec>'      replay one serialized scenario
//   vcabench_fuzz --replay-seed S        replay one generated seed
//   vcabench_fuzz --print-seed S         dump a seed's spec and exit
//   vcabench_fuzz --corpus DIR           replay every spec file in DIR
//
// Batch runs go through Sweep::run, so stdout and the --json report are
// byte-identical at any --jobs count (failures are aggregated from
// submission-ordered result slots; shrinking happens serially afterwards
// and only for failing seeds). Exit status is nonzero iff any scenario
// failed an oracle (or the report could not be written).
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/fuzz.h"
#include "harness/sweep.h"

namespace {

using namespace vca;

struct FuzzArgs {
  int seeds = 256;
  uint64_t seed_base = 1;
  bool shrink = false;
  bool inject_wedge = false;
  uint64_t event_budget = FuzzRunOptions{}.event_budget_per_virtual_sec;
  std::string replay_spec;
  uint64_t replay_seed = 0;
  bool have_replay_seed = false;
  uint64_t print_seed = 0;
  bool have_print_seed = false;
  std::string corpus_dir;
};

FuzzArgs parse_fuzz_args(int argc, char** argv) {
  FuzzArgs a;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (std::strcmp(argv[i], "--seeds") == 0) {
      a.seeds = std::atoi(next());
    } else if (std::strcmp(argv[i], "--seed-base") == 0) {
      a.seed_base = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--shrink") == 0) {
      a.shrink = true;
    } else if (std::strcmp(argv[i], "--inject-wedge") == 0) {
      a.inject_wedge = true;
    } else if (std::strcmp(argv[i], "--event-budget") == 0) {
      a.event_budget = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      a.replay_spec = next();
    } else if (std::strcmp(argv[i], "--replay-seed") == 0) {
      a.replay_seed = std::strtoull(next(), nullptr, 10);
      a.have_replay_seed = true;
    } else if (std::strcmp(argv[i], "--print-seed") == 0) {
      a.print_seed = std::strtoull(next(), nullptr, 10);
      a.have_print_seed = true;
    } else if (std::strcmp(argv[i], "--corpus") == 0) {
      a.corpus_dir = next();
    }
  }
  return a;
}

void print_failures(const FuzzResult& r, const std::string& origin) {
  for (const FuzzFailure& f : r.failures) {
    std::cout << "FAIL " << origin << " [" << f.category << "] " << f.detail
              << "\n";
  }
  if (!r.failures.empty()) {
    std::cout << "  spec:  " << r.spec << "\n";
    std::cout << "  repro: vcabench_fuzz --replay '" << r.spec << "'\n";
  }
}

int run_one(const FuzzScenario& sc, const FuzzRunOptions& opt,
            const std::string& origin) {
  FuzzResult r = run_fuzz_scenario(sc, opt);
  print_failures(r, origin);
  if (r.ok()) {
    std::cout << "OK " << origin << " (" << r.sim_events << " events, "
              << r.reconnects << " reconnects)\n";
    return 0;
  }
  return 1;
}

// Replays every spec file in `dir` (sorted by filename; '#' lines and
// blanks skipped). The corpus is the regression ledger: every seed a past
// fuzzing campaign minimized and fixed, expected to stay oracle-clean.
int run_corpus(const std::string& dir, const FuzzRunOptions& opt,
               const SweepOptions& sweep_opts) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::string, std::string>> specs;  // (file, spec)
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      specs.push_back({entry.path().filename().string(), line});
    }
  }
  if (ec) {
    std::cerr << "vcabench_fuzz: cannot read corpus dir " << dir << "\n";
    return 2;
  }
  std::sort(specs.begin(), specs.end());
  if (specs.empty()) {
    std::cout << "corpus " << dir << ": no specs\n";
    return 0;
  }

  std::vector<FuzzScenario> jobs;
  for (const auto& [file, spec] : specs) {
    auto sc = FuzzScenario::from_spec(spec);
    if (!sc) {
      std::cout << "FAIL " << file << " [spec] unparseable spec line\n";
      return 1;
    }
    jobs.push_back(*sc);
  }
  auto results = Sweep::run(
      jobs, [&](const FuzzScenario& sc) { return run_fuzz_scenario(sc, opt); },
      sweep_opts.jobs);
  int failed = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    print_failures(results[i], specs[i].first);
    if (!results[i].ok()) ++failed;
  }
  std::cout << "corpus: " << results.size() - static_cast<size_t>(failed)
            << "/" << results.size() << " clean\n";
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  SweepOptions sweep_opts = parse_sweep_args(argc, argv);
  FuzzArgs args = parse_fuzz_args(argc, argv);
  FuzzRunOptions opt;
  opt.event_budget_per_virtual_sec = args.event_budget;
  opt.shards = sweep_opts.shards;

  if (args.have_print_seed) {
    FuzzScenario sc = fuzz_scenario_from_seed(args.print_seed);
    std::cout << sc.to_spec() << "\n";
    return 0;
  }
  if (!args.replay_spec.empty()) {
    auto sc = FuzzScenario::from_spec(args.replay_spec);
    if (!sc) {
      std::cerr << "vcabench_fuzz: unparseable --replay spec\n";
      return 2;
    }
    return run_one(*sc, opt, "replay");
  }
  if (args.have_replay_seed) {
    return run_one(fuzz_scenario_from_seed(args.replay_seed), opt,
                   "seed " + std::to_string(args.replay_seed));
  }
  if (!args.corpus_dir.empty()) {
    return run_corpus(args.corpus_dir, opt, sweep_opts);
  }

  // Batch mode.
  BenchReport report("vcabench_fuzz", sweep_opts);
  std::vector<FuzzScenario> jobs;
  for (int i = 0; i < args.seeds; ++i) {
    FuzzScenario sc =
        fuzz_scenario_from_seed(args.seed_base + static_cast<uint64_t>(i));
    sc.inject_wedge = args.inject_wedge;
    jobs.push_back(sc);
  }
  auto results = Sweep::run(
      jobs, [&](const FuzzScenario& sc) { return run_fuzz_scenario(sc, opt); },
      sweep_opts.jobs);

  uint64_t total_events = 0;
  int failed = 0;
  std::map<std::string, int> by_category;  // string-keyed: stable order
  report.begin_section("fuzz", "seed-driven scenario fuzzing");
  for (const FuzzResult& r : results) {
    total_events += r.sim_events;
    if (r.ok()) continue;
    ++failed;
    print_failures(r, "seed " + std::to_string(r.seed));
    for (const FuzzFailure& f : r.failures) ++by_category[f.category];
    report.add_cell({{"seed", std::to_string(r.seed)},
                     {"category", r.failures.front().category}},
                    {{"failures", BenchReport::scalar(
                          static_cast<double>(r.failures.size()))}});
  }
  std::cout << "fuzz: " << results.size() - static_cast<size_t>(failed) << "/"
            << results.size() << " scenarios oracle-clean (seeds "
            << args.seed_base << ".." << args.seed_base + args.seeds - 1
            << ", " << total_events << " sim events)\n";
  for (const auto& [cat, n] : by_category) {
    std::cout << "  " << cat << ": " << n << "\n";
  }
  report.add_cell(
      {{"summary", "totals"}},
      {{"scenarios", BenchReport::scalar(static_cast<double>(results.size()))},
       {"failed", BenchReport::scalar(static_cast<double>(failed))}});

  if (args.shrink && failed > 0) {
    std::cout << "\nshrinking failures to minimal reproducers:\n";
    for (const FuzzResult& r : results) {
      if (r.ok()) continue;
      FuzzScenario sc = fuzz_scenario_from_seed(r.seed);
      sc.inject_wedge = args.inject_wedge;
      auto shrunk = shrink_failure(sc, opt);
      if (!shrunk) {
        std::cout << "seed " << r.seed
                  << ": failure did not reproduce under shrinking\n";
        continue;
      }
      std::cout << "seed " << r.seed << " [" << shrunk->category << "] after "
                << shrunk->runs << " runs -> " << shrunk->minimal.faults.size()
                << " faults, " << shrunk->minimal.clients.size()
                << " clients, "
                << shrunk->minimal.duration_ms / 1000 << "s\n";
      std::cout << "  " << shrunk->detail << "\n";
      std::cout << "  minimal: " << shrunk->minimal.to_spec() << "\n";
      std::cout << "  repro:   vcabench_fuzz --replay '"
                << shrunk->minimal.to_spec() << "'\n";
    }
  }

  bool report_ok = report.finish();
  return failed == 0 && report_ok ? 0 : 1;
}
