// Durability layer (DESIGN_PERF.md "Durability"): WAL roundtrip and torn-
// tail recovery, atomic checkpoint files, segment rotation + reclaim, the
// DurableChain checkpoint cadence, and the bounded (epoch-rotated) commit
// index with its canonical encode/install blobs.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "multishot/finalized_store.hpp"
#include "storage/checkpoint_file.hpp"
#include "storage/durable_chain.hpp"
#include "storage/wal.hpp"

namespace tbft::storage {
namespace {

namespace fs = std::filesystem;
using multishot::Block;
using multishot::Checkpoint;
using multishot::CommitIndex;
using multishot::EpochBloom;
using multishot::FinalizedStore;
using multishot::kGenesisHash;

/// Fresh scratch directory per test, removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() / ("tbft_durability_" + name)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

Block mk(Slot slot, std::uint64_t parent, std::vector<std::uint8_t> payload = {1, 2, 3}) {
  return Block{slot, parent, 0, std::move(payload)};
}

/// Consecutive parent-linked blocks for slots [1, n].
std::vector<Block> make_chain(Slot n) {
  std::vector<Block> blocks;
  std::uint64_t parent = kGenesisHash;
  for (Slot s = 1; s <= n; ++s) {
    Block b = mk(s, parent, {static_cast<std::uint8_t>(s), 0, 1});
    parent = b.hash();
    blocks.push_back(std::move(b));
  }
  return blocks;
}

/// A payload carrying exactly the given transaction frames (view nonce 0).
std::vector<std::uint8_t> tx_payload(const std::vector<std::vector<std::uint8_t>>& txs) {
  serde::Writer w;
  w.varint(0);
  for (const auto& tx : txs) w.bytes(tx);
  return w.take();
}

std::vector<fs::path> segment_files(const fs::path& dir) {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".seg") out.push_back(entry.path());
  }
  return out;
}

TEST(Wal, AppendRecoverRoundtrip) {
  TempDir dir("roundtrip");
  const std::vector<Block> chain = make_chain(20);
  {
    WriteAheadLog wal(dir.path, 4u << 20, 1);
    for (const Block& b : chain) wal.append(b);
  }
  WriteAheadLog wal(dir.path, 4u << 20, 1);
  const WalRecoveryResult rec = wal.recover(0, kGenesisHash);
  EXPECT_FALSE(rec.truncated);
  ASSERT_EQ(rec.blocks.size(), 20u);
  for (Slot s = 1; s <= 20; ++s) EXPECT_EQ(rec.blocks[s - 1], chain[s - 1]);
}

TEST(Wal, RecoverSkipsRecordsCoveredByCheckpoint) {
  TempDir dir("skip_covered");
  const std::vector<Block> chain = make_chain(20);
  {
    WriteAheadLog wal(dir.path, 4u << 20, 1);
    for (const Block& b : chain) wal.append(b);
  }
  WriteAheadLog wal(dir.path, 4u << 20, 1);
  const WalRecoveryResult rec = wal.recover(10, chain[9].hash());
  EXPECT_FALSE(rec.truncated);
  ASSERT_EQ(rec.blocks.size(), 10u);
  EXPECT_EQ(rec.blocks.front().slot, 11u);
  EXPECT_EQ(rec.blocks.back(), chain.back());
}

TEST(Wal, TornTailBytesAreTruncatedAway) {
  TempDir dir("torn_tail");
  const std::vector<Block> chain = make_chain(12);
  {
    WriteAheadLog wal(dir.path, 4u << 20, 1);
    for (const Block& b : chain) wal.append(b);
  }
  // Simulate a crash mid-write: a partial record header at the end.
  auto segs = segment_files(dir.path);
  ASSERT_EQ(segs.size(), 1u);
  {
    std::ofstream f(segs[0], std::ios::binary | std::ios::app);
    f.write("\x07\x00\x00", 3);
  }
  {
    WriteAheadLog wal(dir.path, 4u << 20, 1);
    const WalRecoveryResult rec = wal.recover(0, kGenesisHash);
    EXPECT_TRUE(rec.truncated);
    EXPECT_TRUE(wal.stats().truncated_tail);
    ASSERT_EQ(rec.blocks.size(), 12u);  // everything before the tear survives
  }
  // The tear was physically truncated: a second recovery is clean.
  WriteAheadLog wal(dir.path, 4u << 20, 1);
  const WalRecoveryResult rec = wal.recover(0, kGenesisHash);
  EXPECT_FALSE(rec.truncated);
  EXPECT_EQ(rec.blocks.size(), 12u);
}

TEST(Wal, CorruptRecordDropsItAndEverythingAfter) {
  TempDir dir("corrupt_mid");
  const std::vector<Block> chain = make_chain(12);
  {
    WriteAheadLog wal(dir.path, 4u << 20, 1);
    for (const Block& b : chain) wal.append(b);
  }
  auto segs = segment_files(dir.path);
  ASSERT_EQ(segs.size(), 1u);
  // Flip one byte halfway into the file: some record's checksum now fails,
  // and recovery must not trust anything at or after it.
  const auto size = fs::file_size(segs[0]);
  {
    std::fstream f(segs[0], std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(size / 2));
    const char flip = '\xFF';
    f.write(&flip, 1);
  }
  WriteAheadLog wal(dir.path, 4u << 20, 1);
  const WalRecoveryResult rec = wal.recover(0, kGenesisHash);
  EXPECT_TRUE(rec.truncated);
  EXPECT_LT(rec.blocks.size(), 12u);
  // The surviving prefix is intact and correctly linked.
  for (std::size_t i = 0; i < rec.blocks.size(); ++i) EXPECT_EQ(rec.blocks[i], chain[i]);
}

TEST(Wal, RotationSpreadsSegmentsAndReclaimDropsCoveredOnes) {
  TempDir dir("rotation");
  const std::vector<Block> chain = make_chain(20);
  {
    // 1-byte rotation threshold: every append after the first opens a fresh
    // segment, so each block lands in its own file.
    WriteAheadLog wal(dir.path, 1, 1);
    for (const Block& b : chain) wal.append(b);
    EXPECT_EQ(wal.stats().segments_opened, 20u);
    wal.reclaim(10);
    EXPECT_EQ(wal.stats().segments_reclaimed, 10u);
    // The active segment is never reclaimed, no matter how far the durable
    // checkpoint advanced.
    wal.reclaim(20);
    EXPECT_EQ(segment_files(dir.path).size(), 1u);
  }
  {
    WriteAheadLog wal(dir.path, 1, 1);
    const WalRecoveryResult rec = wal.recover(19, chain[18].hash());
    ASSERT_EQ(rec.blocks.size(), 1u);
    EXPECT_EQ(rec.blocks.front().slot, 20u);
  }
}

TEST(CheckpointFile, RoundtripAndAtomicReplace) {
  TempDir dir("ckpt_roundtrip");
  DurableCheckpoint a;
  a.cp = Checkpoint{10, 0xAAAA, 3, 0xBBBB};
  a.commit_state = {1, 2, 3, 4, 5};
  store_checkpoint(dir.path, a);
  DurableCheckpoint out;
  ASSERT_TRUE(load_checkpoint(dir.path, out));
  EXPECT_EQ(out.cp, a.cp);
  EXPECT_EQ(out.commit_state, a.commit_state);

  // A second store atomically replaces the first.
  DurableCheckpoint b;
  b.cp = Checkpoint{20, 0xCCCC, 9, 0xDDDD};
  store_checkpoint(dir.path, b);
  ASSERT_TRUE(load_checkpoint(dir.path, out));
  EXPECT_EQ(out.cp, b.cp);
  EXPECT_TRUE(out.commit_state.empty());
}

TEST(CheckpointFile, StaleTmpIsIgnoredAndRemoved) {
  TempDir dir("ckpt_tmp");
  DurableCheckpoint good;
  good.cp = Checkpoint{7, 0x1111, 2, 0x2222};
  store_checkpoint(dir.path, good);
  // A crash mid-store leaves a garbage tmp behind; it must not shadow the
  // complete checkpoint.
  {
    std::ofstream f(dir.path / "checkpoint.tmp", std::ios::binary);
    f.write("garbage", 7);
  }
  DurableCheckpoint out;
  ASSERT_TRUE(load_checkpoint(dir.path, out));
  EXPECT_EQ(out.cp, good.cp);
  EXPECT_FALSE(fs::exists(dir.path / "checkpoint.tmp"));
}

TEST(CheckpointFile, CorruptOrMissingFileReportsNoCheckpoint) {
  TempDir dir("ckpt_corrupt");
  DurableCheckpoint out;
  out.cp.slot = 99;  // must stay untouched on failure
  EXPECT_FALSE(load_checkpoint(dir.path, out));
  EXPECT_EQ(out.cp.slot, 99u);

  DurableCheckpoint good;
  good.cp = Checkpoint{7, 0x1111, 2, 0x2222};
  good.commit_state = {9, 9, 9};
  store_checkpoint(dir.path, good);
  // Flip a byte: the trailing whole-file checksum must catch it.
  {
    std::fstream f(dir.path / "checkpoint", std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(9);
    const char flip = '\x5A';
    f.write(&flip, 1);
  }
  EXPECT_FALSE(load_checkpoint(dir.path, out));
  EXPECT_EQ(out.cp.slot, 99u);
}

TEST(CommitIndexEpochs, RotationKeepsAnswersAndBoundsMemory) {
  CommitIndex idx;
  constexpr Slot kSlots = 100'000;
  constexpr Slot kEpoch = 1024;
  for (Slot s = 1; s <= kSlots; ++s) {
    idx.insert(s * 0x9E3779B97F4A7C15ULL, s);
    if (s % 64 == 0) idx.rotate_epochs(s > 16 ? s - 16 : 0, kEpoch);
  }
  idx.rotate_epochs(kSlots, kEpoch);
  // Everything rotated except the last partial epoch.
  EXPECT_EQ(idx.rotated_below(), (kSlots / kEpoch) * kEpoch);
  EXPECT_EQ(idx.rotated_count(), idx.rotated_below());
  EXPECT_LE(idx.bloom_count(), CommitIndex::kMaxResidentBlooms + 1);  // + ancient
  // Resident memory is a handful of fixed-size blooms + a small exact table,
  // not ~16 B for each of the 100k entries.
  EXPECT_LT(idx.resident_bytes(), 128u * 1024);
  // Exact tier still answers byte-for-byte above the rotation boundary.
  for (Slot s = idx.rotated_below() + 1; s <= kSlots; ++s) {
    EXPECT_EQ(idx.first_slot(s * 0x9E3779B97F4A7C15ULL), s);
  }
  // Rotated entries answer from their epoch bloom (the epoch's last slot).
  const Slot probe = 500;
  const Slot got = idx.first_slot(probe * 0x9E3779B97F4A7C15ULL);
  EXPECT_NE(got, 0u);
  EXPECT_LE(got, idx.rotated_below());
  // At this scale the OR-merged ancient bloom is saturated (~90k keys in
  // 64 Kibit), so sub-ancient misses are no longer exact -- the documented
  // cost of flat memory. While only resident epoch blooms exist, though,
  // never-committed keys miss at the per-epoch FP rate; this deterministic
  // key misses all 8 blooms of a fresh 8-epoch index.
  CommitIndex small;
  for (Slot s = 1; s <= 8 * 1024; ++s) small.insert(s * 0x9E3779B97F4A7C15ULL, s);
  small.rotate_epochs(8 * 1024, 1024);
  EXPECT_EQ(small.bloom_count(), 8u);
  EXPECT_EQ(small.first_slot(0xDEAD'BEEF'0000'0001ULL), 0u);
}

TEST(CommitIndexEpochs, CanonicalEncodeInstallRoundtrip) {
  CommitIndex a;
  for (Slot s = 1; s <= 5000; ++s) a.insert(s * 0x9E3779B97F4A7C15ULL, s);
  a.rotate_epochs(4096, 1024);

  serde::Writer w;
  a.encode(w, 4500);
  CommitIndex b;
  serde::Reader r(w.span());
  ASSERT_TRUE(b.install(r));
  ASSERT_TRUE(r.done());
  EXPECT_EQ(b.rotated_below(), a.rotated_below());
  EXPECT_EQ(b.bloom_count(), a.bloom_count());
  for (Slot s = 1; s <= 4500; ++s) {
    EXPECT_EQ(b.first_slot(s * 0x9E3779B97F4A7C15ULL),
              a.first_slot(s * 0x9E3779B97F4A7C15ULL))
        << s;
  }
  // Entries above `upto` were excluded from the blob.
  EXPECT_EQ(b.first_slot(4777 * 0x9E3779B97F4A7C15ULL), 0u);

  // Canonical form: re-encoding the installed copy is byte-identical.
  serde::Writer w2;
  b.encode(w2, 4500);
  EXPECT_EQ(w.data(), w2.data());

  // Truncated blobs are rejected in total-install style: b stays valid/empty.
  serde::Reader torn(std::span<const std::uint8_t>(w.span().data(), w.span().size() - 3));
  EXPECT_FALSE(b.install(torn));
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.first_slot(0x9E3779B97F4A7C15ULL), 0u);
}

TEST(DurableChain, CheckpointCadenceReclaimAndRecovery) {
  TempDir dir("durable_chain");
  const std::vector<std::uint8_t> early_tx = {0xAA, 0xBB};
  DurableOptions opts;
  opts.segment_bytes = 512;
  opts.flush_every = 1;
  opts.checkpoint_every = 16;

  FinalizedStore store(8);
  std::uint64_t parent = kGenesisHash;
  {
    DurableChain durable(dir.path, opts);
    const RecoveredState fresh = durable.recover();
    EXPECT_EQ(fresh.tip(), 0u);
    for (Slot s = 1; s <= 100; ++s) {
      Block b = mk(s, parent, s == 2 ? tx_payload({early_tx}) : std::vector<std::uint8_t>{0});
      parent = b.hash();
      store.append(Block{b}, b.hash());
      durable.append(b, store);
    }
    EXPECT_GE(durable.checkpoints_stored(), 4u);
    EXPECT_GE(durable.durable_checkpoint_slot(), 64u);
    EXPECT_GT(durable.wal_stats().segments_reclaimed, 0u);
  }

  // A new life: checkpoint + WAL tail rebuild the exact same store state.
  DurableChain durable(dir.path, opts);
  RecoveredState rec = durable.recover();
  EXPECT_EQ(rec.tip(), 100u);
  EXPECT_FALSE(rec.truncated_tail);
  EXPECT_GE(rec.checkpoint.slot, 64u);
  ASSERT_FALSE(rec.commit_state.empty());

  FinalizedStore restored(8);
  restored.restore(rec.checkpoint);
  serde::Reader r(rec.commit_state);
  ASSERT_TRUE(restored.install_commit_state(r));
  for (Block& b : rec.tail) {
    const std::uint64_t h = b.hash();
    restored.append(std::move(b), h);
  }
  EXPECT_EQ(restored.tip(), 100u);
  EXPECT_EQ(restored.tip_hash(), store.tip_hash());
  EXPECT_EQ(restored.checkpoint(), store.checkpoint());
  // The commit answered from the recovered digest set: exactly-once survives
  // the restart.
  EXPECT_EQ(restored.commit_slot(early_tx), 2u);
}

TEST(DurableChain, TornTailRecoversToLastDurableRecord) {
  TempDir dir("durable_torn");
  DurableOptions opts;
  opts.flush_every = 1;
  opts.checkpoint_every = 1u << 20;  // never: genesis + WAL only
  std::vector<Block> chain = make_chain(10);
  {
    DurableChain durable(dir.path, opts);
    (void)durable.recover();
    FinalizedStore store(8);
    for (const Block& b : chain) {
      store.append(Block{b}, b.hash());
      durable.append(b, store);
    }
  }
  auto segs = segment_files(dir.path);
  ASSERT_EQ(segs.size(), 1u);
  {
    std::ofstream f(segs[0], std::ios::binary | std::ios::app);
    f.write("\xBA\xD0", 2);  // torn write at the moment of the crash
  }
  DurableChain durable(dir.path, opts);
  const RecoveredState rec = durable.recover();
  EXPECT_TRUE(rec.truncated_tail);
  EXPECT_EQ(rec.tip(), 10u);
  EXPECT_EQ(rec.checkpoint.slot, 0u);
}

}  // namespace
}  // namespace tbft::storage
