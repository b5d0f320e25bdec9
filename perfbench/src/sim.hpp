#pragma once
// Deterministic simulator runs: the sim-churn workload, its capacity
// trials, and the sim twin every real-time workload reports its δ-counted
// latency, outage and catch-up from.

#include <cstdint>
#include <filesystem>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "multishot/node.hpp"
#include "runtime/time.hpp"

namespace perfbench {

struct SimScenario {
  tbft::multishot::MultishotConfig cfg;  ///< from ClusterBuilder::node_config()
  std::uint32_t shards{1};
  std::uint64_t seed{1};
  /// Injected one-way delay: uniform in [0.9, 1.1] x delta on every link.
  /// (A constant delay would put every commit on an exact grid of δ and
  /// timer multiples, so no seed could move the virtual-time metrics.)
  tbft::runtime::Duration delta{1 * tbft::runtime::kMillisecond};
  std::uint32_t clients{2};
  double rate_per_client{2000};
  std::uint32_t request_bytes{64};
  /// Open-loop window [0, load); requests before `warmup` are excluded
  /// from the good-case latency and the capacity verdict.
  tbft::runtime::Duration load{2 * tbft::runtime::kSecond};
  tbft::runtime::Duration warmup{200 * tbft::runtime::kMillisecond};
  /// Crash episodes, in time order: the victim crashes at `at` and restarts
  /// from its WAL `down_for` later. Episodes must not overlap.
  struct Churn {
    tbft::runtime::Time at{0};
    tbft::runtime::Duration down_for{50 * tbft::runtime::kMillisecond};
    tbft::NodeId victim{1};
  };
  std::vector<Churn> churn;
  tbft::runtime::Duration retry_timeout{250 * tbft::runtime::kMillisecond};
  tbft::runtime::Duration drain{3 * tbft::runtime::kSecond};
};

struct SimOutcome {
  // Virtual-time results: a pure function of the scenario.
  std::vector<CommitLedger::Times> times;  ///< every request, registration order
  CommitLedger::Totals totals;
  /// Mean f+1 latency of good-case requests: scheduled in [warmup, first
  /// crash - retry_timeout). A mean, not a median: with pipelining the
  /// good-case distribution has modes one leader rotation apart, and its
  /// median jumps between two of them from seed to seed.
  double good_mean_ms{0};
  double good_p50_ms{0};
  std::size_t good_count{0};
  /// Per episode: the longest f+1 commit gap from its crash to the next
  /// episode's crash (or the end of load).
  std::vector<double> outage_ms;
  /// Per episode: restart -> the restarted replica at the live frontier.
  std::vector<double> catchup_ms;
  std::uint64_t refused{0};
  bool consistent{false};
  bool drained{false};
  bool caught_up{false};
  // Wall-clock cost of the run.
  std::int64_t wall_ns{0};  ///< inside Simulation::run_until*
  std::int64_t cpu_ns{0};
};

/// Run `s` with its WAL under `dir` (recreated). With `tally` the nodes are
/// wrapped in TracedNodes and every layer is tallied into it (the stage
/// split over good-case requests); `spans_path` (optional) receives the
/// spans.
SimOutcome run_sim(const SimScenario& s, const std::filesystem::path& dir,
                   LayerTally* tally = nullptr, const std::filesystem::path& spans_path = {});

/// Wall seconds from building the simulated cluster (WAL directories
/// included) to the first f+1 commit of one request.
double sim_setup_seconds(const SimScenario& s, const std::filesystem::path& dir);

/// `count` crash episodes, `every` apart from `from`: victims take turns,
/// crash instants are stratified over stripe phases plus a seeded offset.
std::vector<SimScenario::Churn> churn_schedule(tbft::runtime::Time from,
                                               tbft::runtime::Duration every, int count,
                                               tbft::runtime::Duration down_for,
                                               std::uint32_t n, std::uint64_t seed);

/// The churn scenario every sim run shares (sim-churn, and the real-time
/// workloads' sim twins): two open-loop clients at 2000 req/s each with a
/// 250 ms client retry, a 2 s good case, then 16 crash/restart episodes
/// half a second apart, so each replica crashes four times. More episodes
/// would be steadier, but depth-4 chains wedge after about 30 (README.md,
/// "Defects visible at seed").
SimScenario churn_scenario(const tbft::multishot::MultishotConfig& cfg, std::uint32_t shards,
                           std::uint32_t request_bytes, std::uint64_t seed);

/// Virtual-time metrics of churn runs, pooled over them: commit_delays (the
/// good-case mean), and the interquartile means over all episodes of
/// outage_ms and catchup_ms (single episodes fall in a few clusters: one
/// view-change timeout or several, zero or one range-sync retry);
/// violations when a run is not correct.
void add_churn_metrics(const std::vector<const SimScenario*>& scenarios,
                       const std::vector<const SimOutcome*>& outcomes, RunResult& r);
/// Correctness verdict of a sim run (exactly-once, foreign bytes, prefix
/// consistency, drain).
void check_sim(const SimOutcome& o, const char* what, RunResult& r);

}  // namespace perfbench
