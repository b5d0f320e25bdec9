// Crash-restart recovery through the facade (DESIGN_PERF.md "Durability"):
// a cluster built with ClusterBuilder::data_dir persists every finalized
// block, is torn down mid-life, and a second cluster built over the same
// directories resumes with identical chains and exactly-once commit
// accounting -- then keeps finalizing. SimCluster::crash/restart churns one
// replica of a live, loaded sharded cluster the same way, and build_sim
// stand-ins take an id's place. Plus the builder's storage-config
// validation (inconsistent tail/window/sync combinations fail eagerly).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sim/adversary.hpp"
#include "tetrabft.hpp"
#include "workload/scenarios.hpp"

namespace tbft {
namespace {

namespace fs = std::filesystem;
using runtime::kMillisecond;
using runtime::kSecond;

constexpr std::uint32_t kNodes = 4;
constexpr std::uint32_t kPhase1Txs = 90;
constexpr std::uint32_t kPhase2Txs = 10;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() / ("tbft_crash_restart_" + name)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

std::vector<std::uint8_t> tx_bytes(std::uint32_t j) {
  return {'c', 'r', static_cast<std::uint8_t>(j >> 8), static_cast<std::uint8_t>(j),
          0x3C, static_cast<std::uint8_t>(j * 11)};
}

/// Deterministic one-tx-per-block shape (see test_local_runner.cpp) with a
/// small finalized tail, fast checkpoint cadence, per-record WAL flushing
/// and commit-index epoch rotation -- every durability knob exercised.
ClusterBuilder restart_builder(const std::string& dir) {
  ClusterBuilder b;
  b.nodes(kNodes)
      .seed(7)
      .delta_bound(1 * kSecond)
      .sim_delta_actual(1 * kMillisecond)
      .batching(/*max_txs=*/1, /*max_bytes=*/4096)
      .forwarding(false)
      .storage_tail(64)
      .commit_epochs(8)
      .data_dir(dir)
      .checkpoint_every(8)
      .wal_flush_every(1)
      .wal_segment_bytes(512);  // tiny segments: rotation + reclaim exercised
  return b;
}

TEST(CrashRestart, SimClusterResumesFromDiskWithExactlyOnceCommits) {
  TempDir dir("sim_churn");
  std::vector<Slot> counts(kNodes, 0);
  std::vector<Slot> commit_slots(kPhase1Txs, 0);

  // --- First life: finalize far past the tail, then tear down. -------------
  {
    auto cluster = restart_builder(dir.path.string()).build_sim();
    for (std::uint32_t j = 0; j < kPhase1Txs; ++j) {
      ASSERT_TRUE(cluster->submit(j % kNodes, tx_bytes(j)));
    }
    cluster->start();
    // Leader rotation does not align with the submission order, so the last
    // transactions commit a few slots past slot kPhase1Txs: wait for the
    // transactions themselves, not a finalized count.
    const auto all_committed = [&] {
      for (NodeId i = 0; i < kNodes; ++i) {
        if (!cluster->replica(i).tx_finalized(tx_bytes(kPhase1Txs - 1)) ||
            !cluster->replica(i).tx_finalized(tx_bytes(kPhase1Txs - 2))) {
          return false;
        }
      }
      for (std::uint32_t j = 0; j < kPhase1Txs; ++j) {
        if (!cluster->replica(0).tx_finalized(tx_bytes(j))) return false;
      }
      return true;
    };
    ASSERT_TRUE(cluster->simulation().run_until_pred(all_committed, 300 * kSecond));
    for (NodeId i = 0; i < kNodes; ++i) counts[i] = cluster->replica(i).finalized_count();
    for (std::uint32_t j = 0; j < kPhase1Txs; ++j) {
      commit_slots[j] = cluster->replica(0).chain().commit_slot(tx_bytes(j));
      ASSERT_NE(commit_slots[j], 0u) << "tx " << j << " not committed in first life";
    }
    // The run compacted (tail 64 < 90 finalized) and checkpointed durably.
    EXPECT_GT(cluster->replica(0).chain().checkpoint().slot, 0u);
    ASSERT_NE(cluster->durable(0), nullptr);
    EXPECT_GE(cluster->durable(0)->checkpoints_stored(), 1u);
    EXPECT_GT(cluster->durable(0)->wal_stats().segments_reclaimed, 0u);
  }

  // Simulate node 0 dying mid-write: torn garbage at the end of its newest
  // WAL segment. Recovery must drop exactly the garbage, no real records
  // (wal_flush_every(1) made every append durable).
  {
    fs::path newest;
    for (const auto& entry : fs::directory_iterator(dir.path / "node-0")) {
      if (entry.path().extension() != ".seg") continue;
      if (newest.empty() || entry.path().filename() > newest.filename()) {
        newest = entry.path();
      }
    }
    ASSERT_FALSE(newest.empty());
    std::ofstream f(newest, std::ios::binary | std::ios::app);
    f.write("\x13\x37", 2);
  }

  // --- Second life: recover from the same directories. ---------------------
  auto cluster = restart_builder(dir.path.string()).build_sim();
  for (NodeId i = 0; i < kNodes; ++i) {
    ASSERT_NE(cluster->durable(i), nullptr);
    // Nothing finalized was lost: each replica resumes at its exact tip.
    EXPECT_EQ(cluster->replica(i).finalized_count(), counts[i]) << "node " << i;
  }
  // Exactly-once accounting: every first-life commit answers from the
  // recovered digest set with its original slot, before any new progress.
  for (std::uint32_t j = 0; j < kPhase1Txs; ++j) {
    EXPECT_EQ(cluster->replica(0).chain().commit_slot(tx_bytes(j)), commit_slots[j])
        << "tx " << j;
  }
  {
    std::vector<multishot::MultishotNode*> replicas;
    for (NodeId i = 0; i < kNodes; ++i) replicas.push_back(&cluster->replica(i));
    EXPECT_TRUE(multishot::chains_prefix_consistent(replicas));
  }

  // The restored cluster is live: it finalizes fresh transactions on top of
  // the recovered chains.
  cluster->start();
  for (std::uint32_t j = 0; j < kPhase2Txs; ++j) {
    ASSERT_TRUE(cluster->submit(j % kNodes, tx_bytes(kPhase1Txs + j)));
  }
  const auto fresh_committed = [&] {
    for (NodeId i = 0; i < kNodes; ++i) {
      for (std::uint32_t j = 0; j < kPhase2Txs; ++j) {
        if (!cluster->replica(i).tx_finalized(tx_bytes(kPhase1Txs + j))) return false;
      }
    }
    return true;
  };
  ASSERT_TRUE(cluster->simulation().run_until_pred(fresh_committed, 300 * kSecond));
  for (NodeId i = 0; i < kNodes; ++i) {
    EXPECT_GT(cluster->replica(i).finalized_count(), counts[i]) << "node " << i;
  }
}

TEST(CrashRestart, SimClusterCrashRestartUnderShardedLoad) {
  // A durable S = 2 cluster under open-loop client load: replica 1 crashes
  // mid-load, its port refuses while it is down, and restart() rebuilds it
  // from its write-ahead logs at exactly the tip it had persisted.
  TempDir dir("sim_live_churn");
  constexpr std::uint32_t kShards = 2;
  const runtime::Duration delta = 10 * kMillisecond;
  ClusterBuilder b;
  b.nodes(kNodes)
      .shards(kShards)
      .seed(11)
      .delta_bound(delta)
      .sim_delta_actual(1 * kMillisecond)
      .batching(32, 4096)
      .data_dir(dir.path.string())
      .checkpoint_every(16)
      .wal_flush_every(1);
  auto cluster = b.build_sim();
  sim::Simulation& simu = cluster->simulation();

  workload::WorkloadTracker tracker(simu.metrics(), kShards);
  const auto observe = [&](NodeId i) {
    for (std::uint32_t k = 0; k < kShards; ++k) tracker.observe(cluster->instance(i, k), k);
  };
  std::vector<workload::SubmitPort*> ports;
  for (NodeId i = 0; i < kNodes; ++i) {
    observe(i);
    ports.push_back(&cluster->port(i));
  }
  workload::ClientLoad load;
  load.clients = 2;
  load.rate_per_sec = 500;
  load.base.stop = 400 * kMillisecond;
  // Requests stranded in the crashed mempool are re-submitted elsewhere.
  load.base.retry_timeout = 4 * 9 * delta;
  workload::add_clients(simu, load, ports, tracker);
  cluster->start();

  simu.run_until(150 * kMillisecond);
  std::vector<Slot> tip(kShards, 0);
  for (std::uint32_t k = 0; k < kShards; ++k) {
    tip[k] = cluster->instance(1, k).finalized_count();
    EXPECT_GT(tip[k], 0u) << "shard " << k;
  }
  cluster->crash(1);
  EXPECT_THROW(cluster->crash(1), std::logic_error);
  EXPECT_THROW((void)cluster->instance(1), std::out_of_range);
  EXPECT_EQ(cluster->shard_instances(1)[1], nullptr);
  EXPECT_EQ(cluster->durable(1), nullptr);  // WAL and checkpoint files closed
  EXPECT_FALSE(cluster->port(1).submit(workload::encode_request(9, 0, 64)));

  simu.run_until(300 * kMillisecond);
  cluster->restart(1);
  EXPECT_THROW(cluster->restart(1), std::logic_error);
  for (std::uint32_t k = 0; k < kShards; ++k) {
    // wal_flush_every(1): every block finalized before the crash is durable.
    EXPECT_EQ(cluster->instance(1, k).finalized_count(), tip[k]) << "shard " << k;
  }
  ASSERT_NE(cluster->durable(1, 1), nullptr);
  observe(1);

  const auto drained = [&] {
    return simu.now() >= load.base.stop && tracker.admitted() > 0 &&
           tracker.all_admitted_committed();
  };
  ASSERT_TRUE(simu.run_until_pred(drained, 120 * kSecond));
  simu.run_until(simu.now() + 2 * delta);
  EXPECT_GT(tracker.committed(), 100u);
  EXPECT_TRUE(tracker.exactly_once())
      << "duplicates=" << tracker.duplicates() << " misrouted=" << tracker.misrouted_commits()
      << " cross_shard=" << tracker.cross_shard_commits();
  for (std::uint32_t k = 0; k < kShards; ++k) {
    EXPECT_TRUE(multishot::chains_prefix_consistent(cluster->shard_instances(k)))
        << "shard " << k;
    // The restarted replica kept finalizing past its recovered tip.
    EXPECT_GT(cluster->instance(1, k).finalized_count(), tip[k]) << "shard " << k;
  }
}

TEST(CrashRestart, SimClusterStandInTakesAnIdsPlace) {
  // A stand-in is a protocol node but not a replica of the facade: no chain
  // instance, no admission, and the finality predicate skips it.
  auto cluster = ClusterBuilder{}.nodes(kNodes).shards(2).build_sim(
      [](NodeId id, const multishot::MultishotConfig&) -> std::unique_ptr<runtime::ProtocolNode> {
        if (id == 3) return std::make_unique<sim::SilentNode>();
        return nullptr;
      });
  EXPECT_THROW((void)cluster->instance(3), std::out_of_range);
  EXPECT_THROW((void)cluster->instance(3, 1), std::out_of_range);
  EXPECT_NO_THROW((void)cluster->instance(2, 1));
  for (std::uint32_t k = 0; k < 2; ++k) {
    const auto chains = cluster->shard_instances(k);
    ASSERT_EQ(chains.size(), kNodes);
    EXPECT_EQ(chains[3], nullptr);
    EXPECT_NE(chains[0], nullptr);
  }
  EXPECT_FALSE(cluster->port(3).submit(tx_bytes(0)));
  EXPECT_THROW(cluster->crash(3), std::logic_error);
  EXPECT_THROW(cluster->restart(3), std::logic_error);
  // Idle chains do not grow: load every shard through the honest replicas.
  for (std::uint32_t j = 0; j < 24; ++j) {
    ASSERT_TRUE(cluster->submit(j % 3, workload::encode_request(5, j, 32)));
  }
  cluster->start();
  EXPECT_TRUE(cluster->run_until_all_finalized(3, 60 * kSecond));
  EXPECT_TRUE(multishot::chains_prefix_consistent(cluster->shard_instances(0)));
}

TEST(CrashRestart, BuilderRejectsInconsistentStorageConfigs) {
  // Tail below the FinalizedStore floor.
  EXPECT_THROW((void)ClusterBuilder{}.storage_tail(4).node_config(), std::logic_error);
  // Tail smaller than the unfinalized window while range-sync is on: peers
  // could compact blocks a straggler still needs.
  EXPECT_THROW((void)ClusterBuilder{}.storage_tail(32).node_config(), std::logic_error);
  // ... and the error tells the user both ways out.
  try {
    (void)ClusterBuilder{}.storage_tail(32).node_config();
    FAIL() << "storage_tail(32) with range-sync on must throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("storage_tail"), std::string::npos) << what;
    EXPECT_NE(what.find("range_sync(false)"), std::string::npos) << what;
  }
  // Disabling range-sync (or a window-sized tail) makes the same tail legal.
  EXPECT_NO_THROW((void)ClusterBuilder{}.storage_tail(32).range_sync(false).node_config());
  EXPECT_NO_THROW((void)ClusterBuilder{}.storage_tail(multishot::ChainStore::kWindow).node_config());
  // Durability knobs validate eagerly at the setter.
  EXPECT_THROW(ClusterBuilder{}.data_dir(""), std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.checkpoint_every(0), std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.wal_flush_every(0), std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.wal_segment_bytes(0), std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.storage_tail(0), std::invalid_argument);
}

}  // namespace
}  // namespace tbft
