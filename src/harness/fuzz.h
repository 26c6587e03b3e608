// Seed-driven scenario fuzzer (ROADMAP item 5): expands one 64-bit seed
// into a fully deterministic random scenario — topology (two-party or
// N-party SFU call with join/leave churn, or a multi-region cascaded
// SFU fleet carrying a 10-50-party conference), VCA profile, link
// shapes, competing flows, and a randomized FaultPlan — then runs it
// under an
// oracle layer that flags invariant violations, silent liveness wedges,
// unbounded recovery, reconnect storms, insane statistics, and event
// storms. A delta-debugging shrinker minimizes failing scenarios to the
// smallest reproducer and prints the exact replay command.
//
// Determinism contract: every scenario field is an integer (ms / kbps /
// per-mille / counts), so to_spec() round-trips exactly through
// from_spec() and a replayed spec is bit-for-bit the generated scenario.
// fuzz_scenario_from_seed(s) consumes randomness only from Rng streams
// forked off `s`, and run_fuzz_scenario builds a fresh share-nothing
// simulation universe per call — the same contract the sweep engine
// (sweep.h) relies on for byte-identical results at any --jobs count.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace vca {

// One participant's access links plus its churn window. Client 0 is the
// observed client (the paper's C1) and client 1 the far party; both are
// present for the whole call. Clients 2+ may join late and leave early
// (join_ms/leave_ms nonzero), the Chang et al. churn pattern.
struct FuzzClient {
  int64_t up_kbps = 0;
  int64_t down_kbps = 0;
  int prop_ms = 2;
  int queue_kb = 150;
  int64_t join_ms = 0;   // 0 = in the call from t=0
  int64_t leave_ms = 0;  // 0 = stays until the end
  int region = 0;        // cascaded-fleet region (< FuzzScenario::regions)
};

enum class FuzzFaultKind {
  kOutage,       // rate -> 0 window
  kFlap,         // a=cycles, b=down_ms, c=up_ms (start_ms = first down)
  kBurstLoss,    // a=p_good_to_bad_pm, b=p_bad_to_good_pm, c=loss_bad_pm
  kReorder,      // a=prob_pm, b=detour_ms
  kDuplicate,    // a=prob_pm
  kShape,        // a=rate_kbps applied at start_ms (length unused)
  kSfuBlackout,  // server offline + its access links dark for the window
  kRelayOutage,  // cascaded fleets only: one region's inter-SFU relay
                 // link pair dark for the window (a = region index)
};

struct FuzzFault {
  FuzzFaultKind kind = FuzzFaultKind::kOutage;
  int target_client = 0;  // -1 = SFU/relay infrastructure, not a client
  bool uplink = true;     // direction for client targets; SFU hits both
  int64_t start_ms = 0;
  int64_t length_ms = 0;
  // Kind-specific (see FuzzFaultKind). On a cascaded fleet (regions > 1)
  // every infrastructure fault (target_client == -1) reads `a` as the
  // region index it strikes; single-SFU scenarios ignore it.
  int64_t a = 0, b = 0, c = 0;
};

enum class FuzzCompetitor { kNone, kBulkUp, kBulkDown, kNetflix, kYoutube };

struct FuzzScenario {
  uint64_t seed = 0;
  std::string profile = "meet";
  bool speaker = false;  // speaker view pinning client 0 (else gallery)
  int64_t duration_ms = 60000;
  // 1 = the classic single-SFU call. >1 = a cascaded geo-sharded fleet
  // (one SfuServer per region, Conference semantics): clients attach by
  // FuzzClient::region and 10-50-party rosters with churn are in play.
  int regions = 1;
  std::vector<FuzzClient> clients;  // size >= 2
  std::vector<FuzzFault> faults;
  FuzzCompetitor competitor = FuzzCompetitor::kNone;
  int64_t competitor_start_ms = 0;
  int64_t competitor_len_ms = 0;
  // Deliberate bug for shrinker/oracle validation: an unmatched rate->0
  // action on client 0's uplink inside the quiet tail. The liveness
  // oracle must flag it and the shrinker must strip everything else.
  bool inject_wedge = false;

  // Canonical single-token serialization (';'-separated key=value list,
  // no spaces); round-trips exactly. This is the corpus/replay format.
  std::string to_spec() const;
  static std::optional<FuzzScenario> from_spec(const std::string& spec);
};

// Expand a seed into a bounded random scenario. Pure function of `seed`.
FuzzScenario fuzz_scenario_from_seed(uint64_t seed);

// One oracle violation. Categories:
//   "invariant"       SimInvariantChecker found broken link/clock state
//   "outage-silence"  traffic crossed a link inside a composed outage
//   "liveness-wedge"  client 0 silently dead at end of run (no media and
//                     no disconnected/degraded report to explain it)
//   "ttr-bound"       fault-era disconnect not recovered within bound of
//                     the last connectivity restore
//   "reconnect-storm" reconnect count out of proportion to the fault load
//   "stuck-degraded"  audio-only long after the last loss fault cleared
//   "stat-sanity"     NaN / negative / absurd end-of-run statistics
//   "event-storm"     per-virtual-second event budget exhausted
struct FuzzFailure {
  std::string category;
  std::string detail;
};

struct FuzzResult {
  uint64_t seed = 0;
  std::string spec;
  std::vector<FuzzFailure> failures;
  uint64_t sim_events = 0;
  int reconnects = 0;
  int invariant_violations = 0;
  bool ok() const { return failures.empty(); }
};

struct FuzzRunOptions {
  // Virtual-time watchdog: the run is driven in 1 s virtual slices and
  // aborted (category "event-storm") if a slice dispatches more than this
  // many events. Catches both runaway schedule storms and zero-delay
  // self-rescheduling loops that would otherwise hang run_until forever.
  uint64_t event_budget_per_virtual_sec = 2'000'000;
  // Feed invariant violations into the process-wide counter BenchReport
  // surfaces (sweep.h). Shrinking disables this: re-running a known-bad
  // scenario dozens of times should not multiply the reported count.
  bool count_invariants_globally = true;
  // Worker threads for a cascaded fleet (regions > 1), which always runs
  // one logical shard per region. The slice event budget is shared across
  // the control strand and every shard, so the event-storm oracle keeps
  // its per-virtual-second meaning — and its verdict — at any thread
  // count. Single-SFU scenarios ignore this (nothing to partition).
  int shards = 1;
};

FuzzResult run_fuzz_scenario(const FuzzScenario& sc,
                             const FuzzRunOptions& opt = {});

// Delta-debugging shrinker: structural simplifications (drop competitor,
// drop churn, drop extra participants, shorten the call) plus ddmin over
// the fault list, accepting a candidate only if it still fails with the
// same oracle category. Returns nullopt if `sc` does not fail at all.
struct ShrinkResult {
  FuzzScenario minimal;
  std::string category;  // failure category the minimal scenario preserves
  std::string detail;    // its failure detail
  int runs = 0;          // scenario executions spent shrinking
};
std::optional<ShrinkResult> shrink_failure(const FuzzScenario& sc,
                                           const FuzzRunOptions& opt = {});

}  // namespace vca
