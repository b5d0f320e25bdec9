// Sharded multi-chain clusters (ISSUE 10): S independent TetraBFT instances
// behind one key-routed front end. Covers the router's determinism and
// stream keying, the S=4 cross-backend equivalence suite (the same routed
// workload committed through the deterministic Simulation and the threaded
// LocalRunner yields identical per-shard chains), cross-shard exactly-once
// accounting under generated load and the ledger that catches misrouted and
// cross-shard commits, the facade's shard/replica bounds checks, and the
// n=64-per-shard configuration the large-n sizing fixes enable.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "tetrabft.hpp"
#include "workload/request.hpp"
#include "workload/scenarios.hpp"

namespace tbft {
namespace {

using runtime::kMillisecond;
using runtime::kSecond;

constexpr std::uint32_t kNodes = 4;
constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kTxCount = 24;

/// Deterministic routed transactions: real workload requests, so the tag
/// (client 9, seq j) picks the home shard exactly as generated load would.
std::vector<std::uint8_t> routed_tx(std::uint32_t j) {
  return workload::encode_request(/*client=*/9, /*seq=*/j, /*total_bytes=*/24);
}

/// Same shape as the single-chain equivalence rig (test_local_runner.cpp):
/// one tx per block and no relaying keeps each shard's tx -> slot map a pure
/// function of the seeding order under any host.
ClusterBuilder sharded_builder() {
  ClusterBuilder b;
  b.nodes(kNodes)
      .shards(kShards)
      .seed(7)
      .delta_bound(1 * kSecond)
      .sim_delta_actual(1 * kMillisecond)
      .batching(/*max_txs=*/1, /*max_bytes=*/4096)
      .forwarding(false);
  return b;
}

TEST(ShardRouter, StreamKeyingRoundTripsAndRoutingIsDeterministic) {
  const shard::ShardRouter router(kShards);
  std::set<std::uint32_t> hit;
  for (std::uint32_t j = 0; j < 256; ++j) {
    const std::uint64_t tag = workload::request_tag(9, j);
    const std::uint32_t s = router.shard_of(tag);
    EXPECT_LT(s, kShards);
    EXPECT_EQ(s, shard::ShardRouter(kShards).shard_of(tag)) << "routing must be stateless";
    hit.insert(s);

    const std::uint64_t stream = shard::shard_stream(s, j + 1);
    EXPECT_EQ(shard::stream_shard(stream), s);
    EXPECT_EQ(shard::stream_slot(stream), j + 1u);
  }
  // mix64 spreads one client's consecutive seqs over every shard.
  EXPECT_EQ(hit.size(), kShards);
  // Shard 0 streams are plain slots: an unsharded consumer reads them as-is.
  EXPECT_EQ(shard::shard_stream(0, 42), 42u);
}

TEST(Sharding, SimVsLocalRunnerCommitIdenticalChainsPerShard) {
  const shard::ShardRouter router(kShards);
  std::vector<std::uint32_t> txs_in_shard(kShards, 0);
  for (std::uint32_t j = 0; j < kTxCount; ++j) {
    ++txs_in_shard[router.shard_of(workload::request_tag(9, j))];
  }

  // Tag-hash routing decouples a tx's shard from the leader rotation, so a
  // shard's leader can face an empty local mempool (forwarding is off) and
  // propose FILLER while real txs sit on other replicas. Slot counts are
  // therefore NOT a drain signal; both backends wait until every routed tx
  // is finalized in its home shard on every replica.

  // --- Simulation side -----------------------------------------------------
  auto sim_cluster = sharded_builder().build_sim();
  for (std::uint32_t j = 0; j < kTxCount; ++j) {
    ASSERT_TRUE(sim_cluster->submit(j % kNodes, routed_tx(j)));
  }
  sim_cluster->start();
  const bool sim_done = sim_cluster->simulation().run_until_pred(
      [&] {
        for (std::uint32_t j = 0; j < kTxCount; ++j) {
          const std::uint32_t home = router.shard_of(workload::request_tag(9, j));
          for (NodeId i = 0; i < kNodes; ++i) {
            if (!sim_cluster->instance(i, home).tx_finalized(routed_tx(j))) return false;
          }
        }
        return true;
      },
      120 * kSecond);
  ASSERT_TRUE(sim_done) << "sim shards did not finalize every routed tx";

  // --- LocalRunner side ----------------------------------------------------
  auto local = sharded_builder().build_local();
  // Committed request tags per (node, shard), recovered from the commit
  // payloads on the composite stream; guarded by the cluster's commit lock
  // (on_commit callbacks and wait_for predicates both run under it).
  std::map<std::pair<NodeId, std::uint32_t>, std::set<std::uint64_t>> committed_tags;
  local->on_commit([&](const runtime::Commit& c) {
    auto& tags = committed_tags[{c.node, shard::stream_shard(c.stream)}];
    for (const std::uint64_t tag : workload::extract_request_tags(c.payload)) {
      tags.insert(tag);
    }
  });
  for (std::uint32_t j = 0; j < kTxCount; ++j) {
    local->submit(j % kNodes, routed_tx(j));  // pre-start: seeds mempools
  }
  local->start();
  const bool all_done = local->wait_for(
      [&] {
        for (std::uint32_t j = 0; j < kTxCount; ++j) {
          const std::uint64_t tag = workload::request_tag(9, j);
          const std::uint32_t home = router.shard_of(tag);
          for (NodeId i = 0; i < kNodes; ++i) {
            const auto it = committed_tags.find({i, home});
            if (it == committed_tags.end() || it->second.count(tag) == 0) return false;
          }
        }
        return true;
      },
      120 * kSecond);
  local->stop();
  ASSERT_TRUE(all_done) << "LocalRunner shards did not finalize every routed tx in time";

  // --- Identical per-shard chains across both backends ----------------------
  // The number of trailing filler slots can differ across hosts (it depends
  // on when each chain went quiescent), so equality is asserted over the
  // common finalized prefix; prefix consistency covers the full chains.
  for (std::uint32_t k = 0; k < kShards; ++k) {
    std::vector<multishot::MultishotNode*> chains = sim_cluster->shard_instances(k);
    for (auto* node : local->shard_instances(k)) chains.push_back(node);
    EXPECT_TRUE(multishot::chains_prefix_consistent(chains)) << "shard " << k;
    const Slot common = std::min(sim_cluster->instance(0, k).finalized_count(),
                                 local->instance(0, k).finalized_count());
    if (txs_in_shard[k] > 0) {
      EXPECT_GE(common, txs_in_shard[k]) << "shard " << k;
    }
    for (Slot s = 1; s <= common; ++s) {
      const multishot::Block* a = sim_cluster->instance(0, k).block_at(s);
      const multishot::Block* b = local->instance(0, k).block_at(s);
      ASSERT_NE(a, nullptr) << "shard " << k << " slot " << s;
      ASSERT_NE(b, nullptr) << "shard " << k << " slot " << s;
      EXPECT_EQ(a->hash(), b->hash())
          << "shard " << k << " slot " << s << " diverged across hosts";
    }
  }
  // Every tx landed exactly on its home shard, under both hosts.
  for (std::uint32_t j = 0; j < kTxCount; ++j) {
    const std::uint32_t home = router.shard_of(workload::request_tag(9, j));
    for (std::uint32_t k = 0; k < kShards; ++k) {
      EXPECT_EQ(sim_cluster->instance(0, k).tx_finalized(routed_tx(j)), k == home)
          << "sim tx " << j << " shard " << k;
      EXPECT_EQ(local->instance(0, k).tx_finalized(routed_tx(j)), k == home)
          << "local tx " << j << " shard " << k;
    }
  }
}

TEST(Sharding, GeneratedLoadIsExactlyOnceAcrossShards) {
  auto cluster = ClusterBuilder{}
                     .nodes(kNodes)
                     .shards(kShards)
                     .seed(11)
                     .delta_bound(10 * kMillisecond)
                     .batching(16, 4096)
                     .build_sim();
  workload::WorkloadTracker tracker(cluster->simulation().metrics(), kShards);
  for (NodeId i = 0; i < kNodes; ++i) {
    for (std::uint32_t k = 0; k < kShards; ++k) {
      tracker.observe(cluster->instance(i, k), k);
    }
  }
  std::vector<workload::SubmitPort*> targets;
  for (NodeId i = 0; i < kNodes; ++i) targets.push_back(&cluster->port(i));

  constexpr runtime::Duration kLoad = 300 * kMillisecond;
  workload::ClientLoad load;
  load.clients = 2;
  load.base.request_bytes = 48;
  load.base.stop = kLoad;
  load.base.retry_timeout = 200 * kMillisecond;  // retries stay in the home shard
  load.rate_per_sec = 800.0;
  workload::add_clients(cluster->simulation(), load, targets, tracker);
  cluster->start();
  const bool drained = cluster->simulation().run_until_pred(
      [&] {
        return cluster->simulation().now() >= kLoad && tracker.submitted() > 0 &&
               tracker.all_admitted_committed();
      },
      60 * kSecond);
  ASSERT_TRUE(drained) << "sharded load did not drain";

  EXPECT_GT(tracker.committed(), 0u);
  EXPECT_TRUE(tracker.exactly_once())
      << "dups=" << tracker.duplicates() << " foreign=" << tracker.foreign()
      << " cross=" << tracker.cross_shard_commits()
      << " misrouted=" << tracker.misrouted_commits();
  // Every shard saw traffic (mix64 spreads two clients' seqs), and the
  // aggregate books reconcile with the per-shard ones.
  std::uint64_t committed_sum = 0;
  for (std::uint32_t k = 0; k < kShards; ++k) {
    EXPECT_GT(tracker.committed(k), 0u) << "idle shard " << k;
    committed_sum += tracker.committed(k);
  }
  EXPECT_EQ(committed_sum, tracker.committed());
  const workload::WorkloadReport report = tracker.report(cluster->simulation().now());
  EXPECT_EQ(report.committed, tracker.committed());
  EXPECT_TRUE(report.exactly_once());
  // Per-shard chains stay prefix-consistent.
  for (std::uint32_t k = 0; k < kShards; ++k) {
    EXPECT_TRUE(multishot::chains_prefix_consistent(cluster->shard_instances(k)))
        << "shard " << k;
  }
}

TEST(Sharding, TrackerLedgerCatchesMisroutedAndCrossShardCommits) {
  // The books are cluster-wide: submissions and retries land in one ledger
  // whatever the tag's home shard.
  {
    MetricsRegistry metrics;
    workload::WorkloadTracker tracker(metrics, kShards);
    for (std::uint32_t j = 0; j < 64; ++j) {
      tracker.on_submitted(workload::request_tag(3, j), /*at=*/j, /*admitted=*/true);
    }
    EXPECT_EQ(tracker.submitted(), 64u);
    EXPECT_EQ(tracker.admitted(), 64u);
    EXPECT_EQ(tracker.outstanding(), 64u);
    // A rejected retry of a known tag is absorbed.
    tracker.on_retry(workload::request_tag(3, 0), /*at=*/100, /*admitted=*/false);
    EXPECT_EQ(tracker.retried(), 1u);
    EXPECT_EQ(tracker.admitted(), 64u);
  }

  // Commit one request straight into shard instances (bypassing the routed
  // port) and let the ledger judge where it landed.
  constexpr std::uint32_t kTwo = 2;
  const shard::ShardRouter router(kTwo);
  const std::vector<std::uint8_t> tx = routed_tx(0);
  const std::uint32_t home = router.shard_of(workload::request_tag(9, 0));
  const std::uint32_t away = 1 - home;
  struct Run {
    std::unique_ptr<SimCluster> cluster;
    std::unique_ptr<workload::WorkloadTracker> tracker;

    // Submit `tx` to replica 0's instance of `shard` and run until every
    // replica finalized it there.
    void commit_on(std::uint32_t shard, const std::vector<std::uint8_t>& tx) {
      ASSERT_TRUE(cluster->instance(0, shard).submit_tx(tx));
      ASSERT_TRUE(cluster->simulation().run_until_pred(
          [&] {
            for (NodeId i = 0; i < kNodes; ++i) {
              if (!cluster->instance(i, shard).tx_finalized(tx)) return false;
            }
            return true;
          },
          cluster->simulation().now() + 30 * kSecond));
    }
  };
  const auto start_run = [&] {
    Run run;
    run.cluster = ClusterBuilder{}
                      .nodes(kNodes)
                      .shards(kTwo)
                      .seed(5)
                      .delta_bound(10 * kMillisecond)
                      .build_sim();
    run.tracker = std::make_unique<workload::WorkloadTracker>(
        run.cluster->simulation().metrics(), kTwo);
    for (NodeId i = 0; i < kNodes; ++i) {
      for (std::uint32_t k = 0; k < kTwo; ++k) {
        run.tracker->observe(run.cluster->instance(i, k), k);
      }
    }
    run.tracker->on_submitted(workload::request_tag(9, 0), /*at=*/0, /*admitted=*/true);
    run.cluster->start();
    return run;
  };

  // First commit on a shard that is not the tag's home: misrouted.
  Run misrouted = start_run();
  misrouted.commit_on(away, tx);
  EXPECT_EQ(misrouted.tracker->misrouted_commits(), 1u);
  EXPECT_EQ(misrouted.tracker->cross_shard_commits(), 0u);
  EXPECT_EQ(misrouted.tracker->committed(away), 1u);
  EXPECT_EQ(misrouted.tracker->duplicates(), 0u);
  EXPECT_EQ(misrouted.tracker->foreign(), 0u);
  EXPECT_FALSE(misrouted.tracker->exactly_once());

  // Home first, then the same tag on a second shard: cross-shard, once per
  // observer of the second shard.
  Run cross = start_run();
  cross.commit_on(home, tx);
  EXPECT_TRUE(cross.tracker->exactly_once());
  EXPECT_EQ(cross.tracker->committed(home), 1u);
  cross.commit_on(away, tx);
  EXPECT_EQ(cross.tracker->misrouted_commits(), 0u);
  EXPECT_EQ(cross.tracker->cross_shard_commits(), kNodes);
  EXPECT_EQ(cross.tracker->committed(), 1u);
  EXPECT_EQ(cross.tracker->duplicates(), 0u);
  EXPECT_EQ(cross.tracker->foreign(), 0u);
  EXPECT_FALSE(cross.tracker->exactly_once());
}

TEST(Sharding, NonRequestBytesRouteToShardZero) {
  auto cluster = sharded_builder().build_sim();
  // Raw (non-request) bytes have no tag: the routed port parks them on
  // shard 0, so legacy byte-blob workloads keep working unsharded.
  EXPECT_TRUE(cluster->port(1).submit({'r', 'a', 'w', 0x01}));
  EXPECT_EQ(cluster->instance(1, 0).mempool().size(), 1u);
  for (std::uint32_t k = 1; k < kShards; ++k) {
    EXPECT_EQ(cluster->instance(1, k).mempool().size(), 0u);
  }
}

TEST(Sharding, BuilderGuardsShardCountAndBackendMismatch) {
  EXPECT_THROW(ClusterBuilder{}.shards(0), std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.shards(2000), std::invalid_argument);
  // S = 1 clusters are one mux-wrapped chain...
  auto single = ClusterBuilder{}.shards(1).build_sim();
  EXPECT_EQ(single->shards(), 1u);
  EXPECT_TRUE(single->submit(0, routed_tx(0)));
  // ...and out-of-range replica or shard access throws instead of reading
  // out of bounds, on every facade type.
  auto sim = ClusterBuilder{}.shards(2).build_sim();
  EXPECT_THROW((void)sim->instance(99, 0), std::out_of_range);
  EXPECT_THROW((void)sim->instance(0, 2), std::out_of_range);
  EXPECT_THROW((void)sim->instance(0, 99), std::out_of_range);
  EXPECT_THROW((void)sim->shard_instances(2), std::out_of_range);
  EXPECT_THROW((void)single->instance(0, 1), std::out_of_range);
  auto local = ClusterBuilder{}.shards(2).build_local();
  EXPECT_THROW((void)local->instance(99, 0), std::out_of_range);
  EXPECT_THROW((void)local->instance(0, 2), std::out_of_range);
  EXPECT_THROW((void)local->shard_instances(7), std::out_of_range);
  EXPECT_THROW(local->submit(99, routed_tx(0)), std::out_of_range);
  auto node = ClusterBuilder{}.shards(2).build_socket_node(0);
  EXPECT_EQ(node->shards(), 2u);
  EXPECT_THROW((void)node->instance(2), std::out_of_range);
}

// The n = 64-per-shard configuration (f = 21): the f-scaled claim and
// checkpoint-identity bounds plus the flat voter containers carry a big
// committee through a routed commit. Kept to a couple of slots per shard so
// the O(n^2) simulated fan-out stays test-sized.
TEST(Sharding, LargeCommitteePerShardCommitsRoutedLoad) {
  auto cluster = ClusterBuilder{}
                     .nodes(64)
                     .shards(2)
                     .seed(13)
                     .delta_bound(50 * kMillisecond)
                     .sim_delta_actual(1 * kMillisecond)
                     .batching(4, 4096)
                     .build_sim();
  const shard::ShardRouter router(2);
  std::vector<std::uint32_t> txs_in_shard(2, 0);
  constexpr std::uint32_t kBigTx = 8;
  for (std::uint32_t j = 0; j < kBigTx; ++j) {
    ASSERT_TRUE(cluster->submit(j % 64, routed_tx(j)));
    ++txs_in_shard[router.shard_of(workload::request_tag(9, j))];
  }
  cluster->start();
  const bool done = cluster->simulation().run_until_pred(
      [&] {
        for (std::uint32_t j = 0; j < kBigTx; ++j) {
          const std::uint32_t home = router.shard_of(workload::request_tag(9, j));
          if (!cluster->instance(0, home).tx_finalized(routed_tx(j))) return false;
        }
        return true;
      },
      120 * kSecond);
  ASSERT_TRUE(done) << "n=64-per-shard cluster did not commit the routed load";
  for (std::uint32_t k = 0; k < 2; ++k) {
    EXPECT_TRUE(multishot::chains_prefix_consistent(cluster->shard_instances(k)))
        << "shard " << k;
  }
}

}  // namespace
}  // namespace tbft
