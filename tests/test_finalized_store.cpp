// Finalized-chain storage engine (DESIGN_PERF.md "Finalized-chain
// storage"): the bounded tail + compaction checkpoint + commit index that
// replaced the unbounded finalized std::vector, and the behavior of the
// chain/protocol layers when compaction is actually exercised -- checkpoint
// exactly at the tail boundary, catch-up requests for slots older than the
// tail (refused with a frontier hint), and byte-identical traces with
// compaction enabled.

#include <gtest/gtest.h>

#include <algorithm>

#include "multishot/finalized_store.hpp"
#include "multishot/node.hpp"
#include "ms_cluster_helpers.hpp"
#include "sim/adversary.hpp"

namespace tbft::multishot {
namespace {

Block mk(Slot slot, std::uint64_t parent, std::vector<std::uint8_t> payload = {1, 2, 3}) {
  return Block{slot, parent, 0, std::move(payload)};
}

/// A payload carrying exactly the given transaction frames (view nonce 0).
std::vector<std::uint8_t> tx_payload(const std::vector<std::vector<std::uint8_t>>& txs) {
  serde::Writer w;
  w.varint(0);
  for (const auto& tx : txs) w.bytes(tx);
  return w.take();
}

TEST(CommitIndex, InsertFindAndGrowth) {
  CommitIndex idx;
  for (Slot s = 1; s <= 1000; ++s) idx.insert(s * 0x9E3779B97F4A7C15ULL, s);
  EXPECT_EQ(idx.size(), 1000u);
  for (Slot s = 1; s <= 1000; ++s) {
    EXPECT_EQ(idx.first_slot(s * 0x9E3779B97F4A7C15ULL), s) << s;
  }
  EXPECT_EQ(idx.first_slot(0xDEAD), 0u);
}

TEST(CommitIndex, DuplicateKeysCoexistAndProbeFully) {
  // Distinct transactions can collide on the 64-bit key; the probe walk
  // must surface every slot so a collision cannot mask a commit.
  CommitIndex idx;
  idx.insert(42, 7);
  idx.insert(42, 9);
  std::vector<Slot> seen;
  idx.find(42, [&](Slot s) {
    seen.push_back(s);
    return false;  // keep walking
  });
  EXPECT_EQ(seen, (std::vector<Slot>{7, 9}));
  EXPECT_EQ(idx.first_slot(42), 7u);
}

TEST(FinalizedStore, CheckpointExactlyAtTailBoundary) {
  FinalizedStore store(8);
  std::uint64_t parent = kGenesisHash;
  std::vector<Block> blocks;
  for (Slot s = 1; s <= 8; ++s) {
    Block b = mk(s, parent);
    parent = b.hash();
    blocks.push_back(b);
    store.append(Block{b}, parent);
  }
  // Exactly full: nothing compacted yet, every block resident.
  EXPECT_EQ(store.tip(), 8u);
  EXPECT_EQ(store.tail_first(), 1u);
  EXPECT_EQ(store.checkpoint().slot, 0u);
  EXPECT_EQ(store.checkpoint().chain_hash, kGenesisHash);
  for (Slot s = 1; s <= 8; ++s) ASSERT_NE(store.block_at(s), nullptr) << s;

  // One past the boundary: slot 1 folds into the checkpoint.
  Block b9 = mk(9, parent);
  store.append(Block{b9}, b9.hash());
  EXPECT_EQ(store.tip(), 9u);
  EXPECT_EQ(store.tail_first(), 2u);
  EXPECT_EQ(store.checkpoint().slot, 1u);
  EXPECT_EQ(store.checkpoint().chain_hash, hash_combine(kGenesisHash, blocks[0].hash()));
  EXPECT_EQ(store.block_at(1), nullptr);
  ASSERT_NE(store.block_at(2), nullptr);
  EXPECT_EQ(*store.block_at(9), b9);
}

TEST(FinalizedStore, PrefixDigestMatchesFullFoldAcrossCompaction) {
  FinalizedStore store(8);
  std::uint64_t parent = kGenesisHash;
  std::uint64_t full_fold = kGenesisHash;
  for (Slot s = 1; s <= 50; ++s) {
    Block b = mk(s, parent);
    parent = b.hash();
    full_fold = hash_combine(full_fold, b.hash());
    store.append(std::move(b), parent);
  }
  ASSERT_EQ(store.tip(), 50u);
  EXPECT_EQ(store.checkpoint().slot, 42u);
  const auto digest = store.prefix_digest(50);
  ASSERT_TRUE(digest.has_value());
  EXPECT_EQ(*digest, full_fold);
  // Below the checkpoint the per-slot digest is gone.
  EXPECT_EQ(store.prefix_digest(41), std::nullopt);
  EXPECT_TRUE(store.prefix_digest(42).has_value());
  EXPECT_EQ(store.prefix_digest(51), std::nullopt);
}

TEST(FinalizedStore, CommitIndexSurvivesCompaction) {
  FinalizedStore store(8);
  const std::vector<std::uint8_t> early_tx = {0xAA, 0xBB, 0xCC};
  const std::vector<std::uint8_t> late_tx = {0x11, 0x22};
  const std::vector<std::uint8_t> never_tx = {0x99};
  std::uint64_t parent = kGenesisHash;
  for (Slot s = 1; s <= 40; ++s) {
    std::vector<std::uint8_t> payload;
    if (s == 2) payload = tx_payload({early_tx});
    else if (s == 39) payload = tx_payload({late_tx});
    else payload = {0, 0, 0, 0};  // filler
    Block b = mk(s, parent, std::move(payload));
    parent = b.hash();
    store.append(std::move(b), parent);
  }
  ASSERT_LT(Slot{2}, store.tail_first());  // the early block was compacted
  EXPECT_EQ(store.commit_slot(early_tx), 2u);   // answered from the digest set
  EXPECT_EQ(store.commit_slot(late_tx), 39u);   // answered byte-exact from the tail
  EXPECT_EQ(store.commit_slot(never_tx), 0u);
  // The checkpoint counted the compacted transaction.
  EXPECT_EQ(store.checkpoint().tx_count, 1u);
}

TEST(FinalizedStore, ChainStoreTailAccessorsAcrossCompaction) {
  ChainStore c(8);
  std::uint64_t parent = kGenesisHash;
  for (Slot s = 1; s <= 30; ++s) {
    Block b = mk(s, parent);
    parent = b.hash();
    ASSERT_TRUE(c.add_block(b, b.hash()));
    ASSERT_TRUE(c.notarize(s, 0, b.hash()));
    c.try_finalize();
  }
  EXPECT_EQ(c.finalized_count(), 27u);  // depth-4 leaves a 3-slot suffix
  EXPECT_EQ(c.first_unfinalized(), 28u);
  EXPECT_EQ(c.tail_first(), 20u);
  EXPECT_TRUE(c.is_finalized(1));
  EXPECT_EQ(c.block_at(19), nullptr);             // compacted
  ASSERT_NE(c.block_at(20), nullptr);             // tail edge
  EXPECT_EQ(c.block_at(20)->slot, 20u);
  EXPECT_EQ(c.finalized_tip_hash(), c.block_at(27)->hash());
  // notarized() cites resident finalized blocks; compacted history is gone.
  EXPECT_TRUE(c.notarized(20).has_value());
  EXPECT_EQ(c.notarized(19), std::nullopt);
}

/// The hash the store reports for every resident block (hash_at, read from
/// the parent links, never recomputed) equals a recomputation from the
/// block, and every digest built from those hashes (tip_hash, prefix_digest,
/// checkpoint_at) equals the same fold over recomputed ones.
void expect_carried_hashes_match_blocks(const FinalizedStore& store) {
  const Checkpoint& base = store.checkpoint();
  if (base.slot > 0) {
    EXPECT_EQ(store.hash_at(base.slot), std::nullopt);  // compacted
  }
  EXPECT_EQ(store.hash_at(store.tip() + 1), std::nullopt);
  Checkpoint expect = base;
  for (Slot s = store.tail_first(); s <= store.tip(); ++s) {
    const Block* b = store.block_at(s);
    ASSERT_NE(b, nullptr) << s;
    EXPECT_EQ(store.hash_at(s), b->hash()) << s;
    expect.chain_hash = hash_combine(expect.chain_hash, b->hash());
    expect.tx_count += payload_frames(b->payload).size();
    expect.slot = s;
    expect.boundary_hash = b->hash();
    EXPECT_EQ(store.prefix_digest(s), expect.chain_hash) << s;
    EXPECT_EQ(store.checkpoint_at(s), expect) << s;
  }
  EXPECT_EQ(store.tip_hash(), expect.slot == base.slot ? base.boundary_hash
                                                       : expect.boundary_hash);
}

/// Slots 1..count, every third one carrying two transaction frames.
std::vector<Block> tx_chain(Slot count) {
  std::vector<Block> chain;
  std::uint64_t parent = kGenesisHash;
  for (Slot s = 1; s <= count; ++s) {
    const auto tag = static_cast<std::uint8_t>(s);
    Block b = mk(s, parent, s % 3 == 0 ? tx_payload({{tag, 1}, {tag, 2}})
                                       : std::vector<std::uint8_t>{0, 0, 0, 0});
    parent = b.hash();
    chain.push_back(std::move(b));
  }
  return chain;
}

TEST(FinalizedStore, CarriedHashesMatchBlocksAcrossAppendCompactionRestoreInstall) {
  const std::vector<Block> chain = tx_chain(60);
  FinalizedStore store(8);
  for (Slot s = 1; s <= 30; ++s) {
    store.append(Block{chain[s - 1]}, chain[s - 1].hash());
    expect_carried_hashes_match_blocks(store);
  }
  ASSERT_EQ(store.checkpoint().slot, 22u);  // compaction ran

  // Restore onto the checkpoint, then replay the tail (the WAL path).
  FinalizedStore restored(8);
  restored.restore(store.checkpoint());
  expect_carried_hashes_match_blocks(restored);
  for (Slot s = store.tail_first(); s <= 40; ++s) {
    restored.append(Block{chain[s - 1]}, chain[s - 1].hash());
    expect_carried_hashes_match_blocks(restored);
  }
  EXPECT_GT(restored.checkpoint().slot, store.checkpoint().slot);  // compacted again

  // Install a checkpoint ahead of the tip (state transfer): the ring
  // restarts at the new boundary and fills and wraps again.
  const auto ahead = restored.checkpoint_at(38);
  ASSERT_TRUE(ahead.has_value());
  ASSERT_TRUE(store.install_checkpoint(*ahead));
  EXPECT_EQ(store.block_at(38), nullptr);
  expect_carried_hashes_match_blocks(store);
  for (Slot s = 39; s <= 60; ++s) {
    store.append(Block{chain[s - 1]}, chain[s - 1].hash());
    expect_carried_hashes_match_blocks(store);
  }
  EXPECT_EQ(store.tip_hash(), chain.back().hash());

  // hash_at reads hashes from the parent links, so the tail must stay linked.
  const Block unlinked = mk(61, 0xBAD);
  EXPECT_THROW(store.append(Block{unlinked}, unlinked.hash()), InvariantViolation);
  EXPECT_EQ(store.tip(), 60u);
}

TEST(FinalizedStore, TipFramesAreTheCommitIndexDigests) {
  const std::vector<std::uint8_t> a = {0xA1, 0xA2};
  const std::vector<std::uint8_t> b = {0xB1};
  FinalizedStore store(8);
  Block b1 = mk(1, kGenesisHash, tx_payload({a, b}));
  const std::uint64_t h1 = b1.hash();
  store.append(std::move(b1), h1);
  const auto frames = store.tip_frames();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].digest, fnv1a64(a));
  EXPECT_TRUE(std::ranges::equal(frames[0].frame, a));
  EXPECT_EQ(frames[1].digest, fnv1a64(b));
  EXPECT_TRUE(std::ranges::equal(frames[1].frame, b));
  // The spans view the resident block's payload, not a copy.
  EXPECT_EQ(frames[0].frame.data(), store.block_at(1)->payload.data() + 2);
  EXPECT_EQ(store.commit_slot(a), 1u);

  Block filler = mk(2, h1, {0, 0, 0, 0});
  const std::uint64_t h2 = filler.hash();
  store.append(std::move(filler), h2);
  EXPECT_TRUE(store.tip_frames().empty());
}

TEST(FinalizedStore, RingFillsLazilyAndStaysFlatOnceFull) {
  FinalizedStore store;
  const std::size_t cap = FinalizedStore::kDefaultTailCapacity;
  // A fresh store holds no ring cells: well under one full ring of blocks.
  const std::size_t fresh = store.resident_bytes();
  EXPECT_LT(fresh, cap * sizeof(Block));
  std::uint64_t parent = kGenesisHash;
  std::size_t before = fresh;
  std::size_t at_full = 0;
  for (Slot s = 1; s <= cap + 100; ++s) {
    Block b = mk(s, parent, {0, 0, 0, 0});
    parent = b.hash();
    store.append(std::move(b), parent);
    const std::size_t now = store.resident_bytes();
    if (s <= cap) {
      EXPECT_GT(now, before) << "slot " << s;  // one more cell per slot
    } else {
      EXPECT_EQ(now, at_full) << "slot " << s;  // full ring: flat
    }
    if (s == cap) at_full = now;
    before = now;
  }
  EXPECT_GT(at_full, cap * sizeof(Block));
}

TEST(FinalizedStore, ForceFinalizeNotifiesHookInOrder) {
  ChainStore c(8);
  std::vector<Slot> notified;
  c.set_on_finalized([&](const Block& b, std::uint64_t h) {
    notified.push_back(b.slot);
    EXPECT_EQ(h, b.hash()) << b.slot;
  });
  std::uint64_t parent = kGenesisHash;
  for (Slot s = 1; s <= 20; ++s) {
    Block b = mk(s, parent);
    parent = b.hash();
    ASSERT_TRUE(c.force_finalize(b, b.hash()));
  }
  ASSERT_EQ(notified.size(), 20u);
  for (Slot s = 1; s <= 20; ++s) EXPECT_EQ(notified[s - 1], s);
}

/// A host for one replica driven by hand: records published commits, counts
/// metrics, and drops every send (the test plays the other replicas).
class RecordingHost final : public runtime::Host {
 public:
  struct Published {
    std::uint64_t stream{0};
    Value value{};
    std::vector<std::uint8_t> payload;
  };

  [[nodiscard]] NodeId id() const override { return 0; }
  [[nodiscard]] std::uint32_t n() const override { return 4; }
  [[nodiscard]] runtime::Time now() const override { return 0; }
  void send(NodeId, Payload) override {}
  void broadcast(Payload) override {}
  runtime::TimerId set_timer(runtime::Duration) override { return ++next_timer_; }
  void cancel_timer(runtime::TimerId) override {}
  void publish_commit(std::uint64_t stream, Value value,
                      std::span<const std::uint8_t> payload) override {
    commits.push_back({stream, value, {payload.begin(), payload.end()}});
  }
  MetricsRegistry& metrics() override { return metrics_; }
  Rng& rng() override { return rng_; }

  std::vector<Published> commits;

 private:
  MetricsRegistry metrics_;
  Rng rng_{1};
  runtime::TimerId next_timer_{0};
};

TEST(DeliveryFilter, FrameCommittedAtAnEarlierSlotIsDroppedCountedAndReconciled) {
  // At-least-once inclusion can put one transaction in two finalized
  // blocks; delivery must publish it once. Slot 1 commits `dup` through
  // WAL replay (which bypasses the commit hooks, so the mempool still holds
  // the transaction), then slot 2 finalizes carrying `dup` again beside a
  // fresh `tx`.
  const std::vector<std::uint8_t> dup = {0xD0, 0xD1, 0xD2};
  const std::vector<std::uint8_t> tx = {0x7E};
  MultishotConfig cfg;
  cfg.forward_to_leader = false;
  MultishotNode node(cfg);
  RecordingHost host;
  node.bind(host);
  ASSERT_TRUE(node.submit_tx(dup));
  ASSERT_TRUE(node.mempool().contains(fnv1a64(dup), dup));

  const Block b1 = mk(1, kGenesisHash, tx_payload({dup}));
  node.restore_chain(Checkpoint{}, {}, {b1});
  node.on_start();
  ASSERT_EQ(node.chain().commit_slot(dup), 1u);
  ASSERT_TRUE(node.mempool().contains(fnv1a64(dup), dup));

  // f+1 = 2 matching claims adopt slot 2 (the ChainInfo catch-up path).
  const Block b2{2, b1.hash(), 2, tx_payload({dup, tx})};
  serde::Writer scratch;
  const MsMessage info = MsChainInfo{3, {b2}};
  node.on_message(1, encode_ms_payload(info, scratch, false));
  node.on_message(2, encode_ms_payload(info, scratch, false));
  ASSERT_EQ(node.finalized_count(), 2u);

  // The chain keeps both copies; delivery publishes `tx` alone.
  ASSERT_EQ(host.commits.size(), 1u);
  const RecordingHost::Published& c = host.commits[0];
  EXPECT_EQ(c.stream, 2u);
  EXPECT_EQ(c.value, b2.value());
  EXPECT_EQ(c.payload.size(), b2.payload.size());  // zero padding keeps the size
  const auto delivered = payload_frames(c.payload);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_TRUE(std::ranges::equal(delivered[0], tx));
  EXPECT_EQ(*node.block_at(2), b2);
  EXPECT_EQ(host.metrics().counter("multishot.delivery.filtered_dup").value(), 1u);
  // Mempool reconciliation matched the duplicate against the block and
  // erased the entry.
  EXPECT_FALSE(node.mempool().contains(fnv1a64(dup), dup));
  EXPECT_EQ(node.mempool().size(), 0u);
}

}  // namespace
}  // namespace tbft::multishot

namespace tbft::test {
namespace {

using multishot::MsType;
using multishot::MultishotConfig;
using multishot::MultishotNode;

/// Cluster whose nodes keep only a tiny finalized tail, so a modest run
/// compacts aggressively.
MsClusterOptions small_tail_opts(std::size_t tail, Slot max_slots) {
  MsClusterOptions opts;
  opts.max_slots = max_slots;
  opts.make_node = [tail](NodeId, const MultishotConfig& cfg)
      -> std::unique_ptr<sim::ProtocolNode> {
    MultishotConfig c = cfg;
    c.finalized_tail = tail;
    return std::make_unique<MultishotNode>(c);
  };
  return opts;
}

TEST(StorageCompaction, ClusterFinalizesFarPastTheTailConsistently) {
  auto c = make_ms_cluster(small_tail_opts(8, 40));
  ASSERT_TRUE(c.run_until_finalized(36, 30 * c.timeout()));
  // Every node compacted most of its chain; consistency still checks out
  // through the digest path of chains_prefix_consistent.
  for (const auto* node : c.nodes) {
    EXPECT_GT(node->chain().checkpoint().slot, 0u);
    EXPECT_EQ(node->chain().tail_first(), node->chain().checkpoint().slot + 1);
  }
  EXPECT_TRUE(c.chains_consistent());
  EXPECT_TRUE(c.sim->trace().agreement_holds());
}

TEST(StorageCompaction, CatchUpOlderThanTailRecoversViaCheckpointTransfer) {
  // Node 3 is cut off from the start while the others finalize far past
  // their 8-block tails. Its catch-up request targets slot 1, which every
  // peer has compacted: range-sync is refused (frontier hint, counted by
  // multishot.sync.refused), and the refusal pivots the straggler straight
  // into checkpoint state transfer -- f+1 vouched checkpoint identities,
  // chunked commit-state download, install, then ordinary range-sync closes
  // the remaining gap up to the live frontier.
  MsClusterOptions opts = small_tail_opts(8, 60);
  opts.gst = 3600 * sim::kSecond;  // the adversary below decides every delivery
  auto cut_off = std::make_shared<bool>(true);
  opts.adversary = [cut_off](const sim::Envelope& env,
                             sim::SimTime send_time) -> std::optional<sim::DeliveryDecision> {
    if (*cut_off && (env.dst == 3 || env.src == 3)) {
      return sim::DeliveryDecision{.drop = true, .deliver_at = 0};
    }
    return sim::DeliveryDecision{.drop = false, .deliver_at = send_time + sim::kMillisecond};
  };
  auto c = make_ms_cluster(opts);
  const auto others_done = [&] {
    for (NodeId i = 0; i < 3; ++i) {
      if (c.nodes[i]->finalized_count() < 56) return false;
    }
    return true;
  };
  ASSERT_TRUE(c.sim->run_until_pred(others_done, 200 * c.timeout()));
  ASSERT_LT(c.nodes[3]->finalized_count() + 8, c.nodes[0]->finalized_count());

  // Heal the partition. The blocks the straggler asks for are compacted
  // everywhere, so recovery must go through the checkpoint path.
  *cut_off = false;
  const auto straggler_caught_up = [&] {
    return c.nodes[3]->finalized_count() + 8 >= c.nodes[0]->finalized_count();
  };
  ASSERT_TRUE(c.sim->run_until_pred(straggler_caught_up, 200 * c.timeout()));
  EXPECT_GT(c.sim->metrics().counter("multishot.sync.refused").value(), 0u);
  EXPECT_GE(c.sim->metrics().counter("multishot.ckpt.requests").value(), 1u);
  EXPECT_GE(c.sim->metrics().counter("multishot.ckpt.installed").value(), 1u);
  // The adopted checkpoint carries the commit history: the straggler now
  // holds a compacted prefix consistent with everyone else's.
  EXPECT_GT(c.nodes[3]->chain().checkpoint().slot, 8u);
  EXPECT_TRUE(c.chains_consistent());
}

TEST(StorageCompaction, TracesAreByteIdenticalWithCompactionEnabled) {
  // Determinism: two identical small-tail runs produce byte-identical
  // traces, and compaction itself is invisible on the wire -- a tiny-tail
  // run and a default-tail run of the same seed also trace identically
  // (no catch-up traffic flows in the good case, so the tail size can only
  // affect local storage, never messages).
  const auto digest_of = [](std::size_t tail) {
    auto c = make_ms_cluster(small_tail_opts(tail, 30));
    EXPECT_TRUE(c.run_until_finalized(26, 30 * c.timeout()));
    c.sim->run_until(c.sim->now() + 50 * sim::kMillisecond);
    return c.sim->trace().digest();
  };
  const std::uint64_t small_a = digest_of(8);
  const std::uint64_t small_b = digest_of(8);
  const std::uint64_t large = digest_of(multishot::FinalizedStore::kDefaultTailCapacity);
  EXPECT_EQ(small_a, small_b);
  EXPECT_EQ(small_a, large);
}

}  // namespace
}  // namespace tbft::test
