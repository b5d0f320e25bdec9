#pragma once
// End-to-end commit accounting for the workload engine: every request is
// tracked from submission (generator -> node mempool) through commit (the
// block carrying it finalizes at an observed node), feeding the run's
// MetricsRegistry and a WorkloadReport summary. One tracker serves a
// cluster of any shard count S (DESIGN_PERF.md "Sharding"); S = 1 is the
// single chain.
//
// Accounting rules:
//  - a request "commits" the first time any observed node finalizes a block
//    containing it; its latency is commit time minus submit time;
//  - per observer, a tag appearing twice in the finalized chain is a
//    double-commit (duplicates); a tag never submitted is foreign -- both
//    break the exactly-once contract bench_workload enforces by exit code;
//  - the first commit also records its shard: a tag first committed on a
//    shard other than its home (shard::ShardRouter::shard_of) is a
//    misrouted commit, and a later commit of the same tag on a different
//    shard is a cross-shard commit -- each shard's chain may look clean in
//    isolation, so only this ledger sees either;
//  - client-side retries re-submit an existing tag (on_retry): the
//    duplicate *submission* is absorbed -- submitted/admitted stay keyed by
//    tag, latency runs from the first admission -- and a double-commit of a
//    retried tag is reported as retry_duplicates (the known at-least-once
//    window retries open), not as an exactly-once violation;
//  - closed-loop generators learn about completions through per-client
//    listeners, called once per committed request of that client.
//
// NOT thread-safe: sim-side accounting only. Threaded benches (bench_socket,
// bench_sharding over LocalRunner) account under the facade's commit lock.

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/metrics.hpp"
#include "multishot/node.hpp"
#include "runtime/time.hpp"
#include "shard/router.hpp"

namespace tbft::workload {

/// Flat summary of one loaded run. Deterministic for a fixed seed/config
/// (compared wholesale in the determinism regression).
struct WorkloadReport {
  std::uint64_t submitted{0};
  std::uint64_t admitted{0};
  std::uint64_t rejected{0};
  std::uint64_t committed{0};
  std::uint64_t duplicates{0};  // double-commits seen by any observer
  std::uint64_t foreign{0};     // committed tags never submitted
  std::uint64_t retried{0};     // client-side re-submissions (same tag)
  std::uint64_t retry_duplicates{0};  // double-commits attributable to retries
  std::uint64_t misrouted{0};    // first commits off the tag's home shard
  std::uint64_t cross_shard{0};  // later commits of a tag on another shard
  double committed_tx_per_sec{0};
  double latency_mean_ms{0};
  double latency_p50_ms{0};
  double latency_p95_ms{0};
  double latency_p99_ms{0};
  double latency_max_ms{0};
  double batch_txs_mean{0};
  double batch_txs_max{0};
  double mempool_depth_mean{0};
  double mempool_depth_max{0};
  std::uint64_t mempool_rejected{0};
  std::uint64_t mempool_dropped_oldest{0};

  [[nodiscard]] std::uint64_t outstanding() const noexcept { return admitted - committed; }
  [[nodiscard]] bool exactly_once() const noexcept {
    return duplicates == 0 && foreign == 0 && misrouted == 0 && cross_shard == 0;
  }

  friend bool operator==(const WorkloadReport&, const WorkloadReport&) = default;

  void print(const char* title) const;
};

/// The accounting surface generators talk to: WorkloadTracker in-tree, an
/// external f+1 commit ledger in the end-to-end benchmark.
class TrackerSink {
 public:
  virtual ~TrackerSink() = default;
  virtual void on_submitted(std::uint64_t tag, runtime::Time at, bool admitted) = 0;
  virtual void on_retry(std::uint64_t tag, runtime::Time at, bool admitted) = 0;
  virtual void set_completion_listener(std::uint32_t client,
                                       std::function<void(std::uint64_t)> listener) = 0;
};

class WorkloadTracker final : public TrackerSink {
 public:
  /// Books for a cluster of `shards` key-routed chains (1 = single chain).
  explicit WorkloadTracker(MetricsRegistry& metrics, std::uint32_t shards = 1)
      : metrics_(metrics), router_(shards), shard_committed_(shards, 0) {}

  /// Install this tracker as `node`'s commit hook, as a replica of `shard`.
  /// Observe every honest instance so per-chain double-commits are caught
  /// wherever they surface; re-observe a restarted replica's new instances.
  void observe(multishot::MultishotNode& node, std::uint32_t shard = 0);

  /// Generators report every submission attempt here.
  void on_submitted(std::uint64_t tag, runtime::Time at, bool admitted) override;

  /// Generators report client-side re-submissions of an existing tag here.
  /// Absorbed into the exactly-once books: an already-admitted tag keeps
  /// its original submit time (latency is end-to-end from first admission);
  /// a retry that admits a previously rejected tag becomes its admission.
  void on_retry(std::uint64_t tag, runtime::Time at, bool admitted) override;

  /// `listener(tag)` fires once per committed request of `client`
  /// (closed-loop replenishment).
  void set_completion_listener(std::uint32_t client,
                               std::function<void(std::uint64_t)> listener) override {
    listeners_[client] = std::move(listener);
  }

  [[nodiscard]] std::uint64_t submitted() const noexcept { return submitted_; }
  [[nodiscard]] std::uint64_t admitted() const noexcept { return admitted_; }
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }
  [[nodiscard]] std::uint64_t committed() const noexcept { return committed_; }
  [[nodiscard]] std::uint64_t duplicates() const noexcept { return duplicates_; }
  [[nodiscard]] std::uint64_t foreign() const noexcept { return foreign_; }
  [[nodiscard]] std::uint64_t retried() const noexcept { return retried_; }
  [[nodiscard]] std::uint64_t retry_duplicates() const noexcept { return retry_duplicates_; }
  [[nodiscard]] std::uint64_t outstanding() const noexcept { return admitted_ - committed_; }
  [[nodiscard]] bool all_admitted_committed() const noexcept {
    return committed_ == admitted_;
  }
  /// Tags whose first commit landed on a shard other than their home.
  [[nodiscard]] std::uint64_t misrouted_commits() const noexcept { return misrouted_commits_; }
  /// Commits of an already-committed tag on a different shard than its
  /// first commit (counted per observer that sees one).
  [[nodiscard]] std::uint64_t cross_shard_commits() const noexcept {
    return cross_shard_commits_;
  }
  /// Requests whose first commit landed on `shard`.
  [[nodiscard]] std::uint64_t committed(std::uint32_t shard) const {
    return shard_committed_.at(shard);
  }
  /// Exactly-once across the cluster: no double-commits, no foreign tags,
  /// no misrouted or cross-shard commits.
  [[nodiscard]] bool exactly_once() const noexcept {
    return duplicates_ == 0 && foreign_ == 0 && misrouted_commits_ == 0 &&
           cross_shard_commits_ == 0;
  }

  /// Summarize the run; `elapsed` is the wall (simulated) time the
  /// throughput figure is normalized by.
  [[nodiscard]] WorkloadReport report(runtime::Time elapsed) const;

 private:
  struct FirstCommit {
    runtime::Time at;
    std::uint32_t shard;
  };

  void on_finalized(std::size_t observer, std::uint32_t shard, const multishot::Block& b,
                    runtime::Time at);

  MetricsRegistry& metrics_;
  shard::ShardRouter router_;
  std::map<std::uint64_t, runtime::Time> submit_time_;  // admitted requests
  std::map<std::uint64_t, FirstCommit> first_commit_;   // first commit anywhere
  std::vector<std::set<std::uint64_t>> seen_;           // per observer
  std::set<std::uint64_t> retried_tags_;                // tags ever re-submitted
  std::vector<std::uint64_t> shard_committed_;          // first commits per shard
  std::map<std::uint32_t, std::function<void(std::uint64_t)>> listeners_;
  std::uint64_t submitted_{0};
  std::uint64_t admitted_{0};
  std::uint64_t rejected_{0};
  std::uint64_t committed_{0};
  std::uint64_t duplicates_{0};
  std::uint64_t foreign_{0};
  std::uint64_t retried_{0};
  std::uint64_t retry_duplicates_{0};
  std::uint64_t misrouted_commits_{0};
  std::uint64_t cross_shard_commits_{0};
};

}  // namespace tbft::workload
