// Three-transport equivalence: the same multishot workload, seeded
// identically, committed through the deterministic Simulation, the threaded
// shared-memory LocalRunner, AND a loopback-TCP socket Cluster yields
// identical finalized chains per shard -- the proof that the socket transport
// carries everything the consensus cores need (shard routes included) and
// perturbs nothing. Every socket message crossed a real TCP connection
// through the frame codec; only the process boundary separates this from a
// deployed cluster (and examples/socket_cluster.cpp removes that). Runs at
// S = 1 (plain kData frames) and S = 4 (routed frames).
//
// Mirrors tests/test_local_runner.cpp's recipe: one tx per block, no
// forwarding, generous delta so no host ever view-changes, pre-start mempool
// seeding so the tx -> slot assignment is a pure function of the seeds.
// Each shard's requests are seeded round-robin over the replicas, so every
// slot's leader holds that shard's next request and no leader idles.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "tetrabft.hpp"
#include "workload/request.hpp"

namespace tbft {
namespace {

using runtime::kMillisecond;
using runtime::kSecond;

constexpr std::uint32_t kNodes = 4;
constexpr std::uint32_t kTxCount = 32;  // kTxCount / S per shard

/// Keyed requests: the tag (client 9, seq j) picks the home shard.
std::vector<std::uint8_t> tx_bytes(std::uint32_t j) {
  return workload::encode_request(/*client=*/9, /*seq=*/j, /*total_bytes=*/24);
}

/// One seeded request: its seq and the replica whose mempool holds it.
struct Seeded {
  std::uint32_t seq;
  NodeId replica;
};

/// kTxCount requests, kTxCount / S per shard; the i-th request of a shard
/// goes to replica i % n, which leads that shard's slot i + 1.
std::vector<Seeded> seeded_txs(const shard::ShardRouter& router) {
  std::vector<Seeded> out;
  std::vector<std::uint32_t> per_shard(router.shards(), 0);
  for (std::uint32_t seq = 0; out.size() < kTxCount; ++seq) {
    std::uint32_t& count = per_shard[router.shard_of(workload::request_tag(9, seq))];
    if (count == kTxCount / router.shards()) continue;
    out.push_back({seq, (count++ + 1) % kNodes});
  }
  return out;
}

ClusterBuilder equivalence_builder(std::uint32_t shards = 1) {
  ClusterBuilder b;
  b.nodes(kNodes)
      .shards(shards)
      .seed(7)
      .delta_bound(1 * kSecond)
      .sim_delta_actual(1 * kMillisecond)
      .batching(/*max_txs=*/1, /*max_bytes=*/4096)
      .forwarding(false);
  return b;
}

/// Seed, start and drain a real-time cluster: every tx committed in its
/// home shard on every replica (tracked from the commit payloads).
void run_to_completion(Cluster& c, const shard::ShardRouter& router,
                       const std::vector<Seeded>& txs) {
  std::map<std::pair<NodeId, std::uint32_t>, std::set<std::uint64_t>> tags;  // commit lock
  c.on_commit([&](const runtime::Commit& commit) {
    auto& seen = tags[{commit.node, shard::stream_shard(commit.stream)}];
    for (const std::uint64_t tag : workload::extract_request_tags(commit.payload)) {
      seen.insert(tag);
    }
  });
  for (const Seeded& t : txs) {
    c.submit(t.replica, tx_bytes(t.seq));  // pre-start: seeds mempools inline
  }
  c.start();
  const bool done = c.wait_for(
      [&] {
        for (const Seeded& t : txs) {
          const std::uint64_t tag = workload::request_tag(9, t.seq);
          for (NodeId i = 0; i < kNodes; ++i) {
            const auto it = tags.find({i, router.shard_of(tag)});
            if (it == tags.end() || it->second.count(tag) == 0) return false;
          }
        }
        return true;
      },
      120 * kSecond);
  c.stop();
  EXPECT_TRUE(done) << "cluster did not finalize all " << kTxCount << " txs in time";
}

void expect_equivalent(std::uint32_t shards) {
  SCOPED_TRACE("S=" + std::to_string(shards));
  const shard::ShardRouter router(shards);
  const auto home = [&](std::uint32_t seq) {
    return router.shard_of(workload::request_tag(9, seq));
  };
  const std::vector<Seeded> txs = seeded_txs(router);

  // --- Simulation (the reference) -------------------------------------------
  auto sim_cluster = equivalence_builder(shards).build_sim();
  for (const Seeded& t : txs) ASSERT_TRUE(sim_cluster->submit(t.replica, tx_bytes(t.seq)));
  sim_cluster->start();
  ASSERT_TRUE(sim_cluster->simulation().run_until_pred(
      [&] {
        for (const Seeded& t : txs) {
          for (NodeId i = 0; i < kNodes; ++i) {
            if (!sim_cluster->instance(i, home(t.seq)).tx_finalized(tx_bytes(t.seq))) {
              return false;
            }
          }
        }
        return true;
      },
      60 * kSecond));

  // --- LocalRunner (shared memory) and sockets (loopback TCP) ---------------
  auto local = equivalence_builder(shards).build_local();
  run_to_completion(*local, router, txs);
  auto sockets = equivalence_builder(shards).build_socket();
  run_to_completion(*sockets, router, txs);

  // --- Identical finalized chains per shard, all twelve observations --------
  // Trailing filler slots can differ across hosts (they depend on when each
  // chain went quiescent), so equality is asserted over the common
  // finalized prefix; prefix consistency covers the full chains.
  for (std::uint32_t k = 0; k < shards; ++k) {
    std::vector<multishot::MultishotNode*> all_chains = sim_cluster->shard_instances(k);
    for (auto* node : local->shard_instances(k)) all_chains.push_back(node);
    for (auto* node : sockets->shard_instances(k)) all_chains.push_back(node);
    EXPECT_TRUE(multishot::chains_prefix_consistent(all_chains)) << "shard " << k;
    const Slot common = std::min({sim_cluster->instance(0, k).finalized_count(),
                                  local->instance(0, k).finalized_count(),
                                  sockets->instance(0, k).finalized_count()});
    EXPECT_GE(common, kTxCount / shards) << "shard " << k;
    for (Slot s = 1; s <= common; ++s) {
      const multishot::Block* sim_b = sim_cluster->instance(0, k).block_at(s);
      const multishot::Block* loc_b = local->instance(0, k).block_at(s);
      const multishot::Block* sock_b = sockets->instance(0, k).block_at(s);
      ASSERT_NE(sim_b, nullptr);
      ASSERT_NE(loc_b, nullptr);
      ASSERT_NE(sock_b, nullptr);
      EXPECT_EQ(sim_b->hash(), sock_b->hash()) << "shard " << k << " slot " << s << " sim vs socket";
      EXPECT_EQ(loc_b->hash(), sock_b->hash()) << "shard " << k << " slot " << s << " local vs socket";
    }
  }
  // Every tx landed exactly on its home shard over the socket transport.
  for (const Seeded& t : txs) {
    for (std::uint32_t k = 0; k < shards; ++k) {
      EXPECT_EQ(sockets->instance(0, k).tx_finalized(tx_bytes(t.seq)), k == home(t.seq))
          << "tx " << t.seq << " shard " << k;
    }
  }

  // Transport health: every pair handshook, nothing was dropped or rejected,
  // and real frames moved in both directions on every host.
  for (NodeId i = 0; i < kNodes; ++i) {
    const runtime::NetStats& s = sockets->host(i).net_stats();
    EXPECT_GE(s.handshakes.load(), kNodes - 1) << "node " << i;
    EXPECT_GT(s.frames_rx.load(), 0u) << "node " << i;
    EXPECT_GT(s.frames_tx.load(), 0u) << "node " << i;
    EXPECT_EQ(s.queue_dropped.load(), 0u) << "node " << i;
    EXPECT_EQ(s.rejected_hello.load(), 0u) << "node " << i;
    EXPECT_EQ(s.rx_oversize.load(), 0u) << "node " << i;
    EXPECT_EQ(s.rx_junk.load(), 0u) << "node " << i;
  }
}

TEST(SocketEquivalence, SocketClusterCommitsIdenticalChainToSimAndLocal) {
  expect_equivalent(1);
  expect_equivalent(4);
}

TEST(SocketEquivalence, StopIsIdempotentAndReplicaAccessIsGuarded) {
  auto sockets = equivalence_builder().build_socket();
  sockets->submit(0, tx_bytes(0));
  sockets->start();
  EXPECT_THROW((void)sockets->replica(0), std::logic_error);
  sockets->stop();
  sockets->stop();  // idempotent
  (void)sockets->replica(0);  // quiescent: safe now
}

TEST(SocketEquivalence, BuilderValidatesSocketKnobs) {
  EXPECT_THROW(ClusterBuilder{}.socket_backoff(0, 1 * kSecond), std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.socket_backoff(1 * kSecond, 1 * kMillisecond),
               std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.socket_liveness(0, 1 * kSecond), std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.socket_liveness(1 * kSecond, 1 * kMillisecond),
               std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.socket_queue(0), std::invalid_argument);
  EXPECT_THROW(ClusterBuilder{}.socket_max_frame(16), std::invalid_argument);
  // A frame cap that cannot carry a full proposal batch is a config error
  // caught at build time, not a mysterious oversize-drop at runtime.
  EXPECT_THROW(
      ClusterBuilder{}.batching(64, 2u << 20).socket_max_frame(1u << 20).build_socket(),
      std::logic_error);
  EXPECT_THROW(ClusterBuilder{}.nodes(4).build_socket_node(4), std::invalid_argument);
}

}  // namespace
}  // namespace tbft
