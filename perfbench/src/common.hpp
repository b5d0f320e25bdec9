#pragma once
// Shared plumbing of the benchmark program: options, the result a workload
// returns, process resource probes, and latency summaries over the ledger.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::filesystem::path work_dir;  ///< scratch for WAL directories and span files
  /// >= 0: run only set-up round k and print its seconds (SetupSamples).
  int setup_round{-1};
};

struct Metric {
  std::string name;
  double value{0};
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;
  /// Correctness violations; any entry makes the run invalid.
  std::vector<std::string> violations;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void violate(std::string why) { violations.push_back(std::move(why)); }
};

/// User + system CPU of the whole process, in ns.
[[nodiscard]] std::int64_t process_cpu_ns();
/// CPU of the calling thread, in ns.
[[nodiscard]] std::int64_t thread_cpu_ns();
/// Peak resident set of the process, in MiB.
[[nodiscard]] double peak_rss_mb();
/// Bytes this process has passed to write(2) so far (/proc/self/io wchar).
[[nodiscard]] std::uint64_t bytes_written();

/// setup_s: set-up rounds (seconds from build to the first f+1 commit of
/// one warm-up request) and their median.
///
/// Each round runs in a fresh process -- this program started again with
/// --setup-round -- as a user's program builds its cluster. A round run in
/// this process, or in a child forked from it, starts from whatever heap
/// the run's earlier work left: one sim-churn round took 275, 400 or 612
/// page faults depending on when it ran, and the median moved with them.
/// A run takes its rounds in groups spread over the run, so a noisy
/// stretch of the shared machine moves a share of them, not all.
class SetupSamples {
 public:
  explicit SetupSamples(const Options& opt) : opt_(opt) {}
  /// Run `rounds` more rounds; a failed round records -1.
  void take(int rounds);
  /// The median; a violation when any round failed.
  [[nodiscard]] double median(RunResult& r) const;

 private:
  const Options& opt_;
  std::vector<double> seconds_;
};

/// Latency summary of ledger entries: f+1 commit time minus scheduled time.
/// Requests not committed count as infinitely late (they miss every limit).
struct LatencySummary {
  Quantile p50;
  Quantile p99;
  std::uint64_t offered{0};
  std::uint64_t committed{0};
};
[[nodiscard]] LatencySummary summarize(const std::vector<CommitLedger::Times>& times);

/// Outcome of one capacity-search trial (see TrialLimits).
struct TrialLimits {
  double p99_ms{50};
  double min_goodput{0.95};
  /// Backlog may grow over the window's second half by at most this share
  /// of the requests offered in that half.
  double max_backlog_growth{0.05};
};
struct TrialVerdict {
  bool pass{false};
  double p99_ms{0};
  double goodput{0};
  double backlog_growth{0};
};
/// Judge a trial window [start_ns, end_ns) from its requests' times.
[[nodiscard]] TrialVerdict judge_trial(const std::vector<CommitLedger::Times>& times,
                                       std::int64_t start_ns, std::int64_t end_ns,
                                       const TrialLimits& limits);

}  // namespace perfbench
