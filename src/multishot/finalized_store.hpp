#pragma once
// Finalized-chain storage engine (DESIGN_PERF.md "Finalized-chain storage").
//
// The finalized side of the chain used to be a flat std::vector<Block> that
// grew forever; this store bounds resident BLOCK memory to O(tail)
// regardless of chain length (the commit-index digest set still grows with
// committed transactions -- ~16 B/tx vs full payloads, see the invariants
// note below):
//
//  - a ring of the most recent `tail_capacity` finalized blocks (the tail)
//    serves every reader that needs block *content* -- ChainInfo answering,
//    range-sync chunks, parent lookups, mempool reconciliation;
//  - blocks that fall off the tail are folded into a Checkpoint: the slot of
//    the compaction boundary, a cumulative chain hash over every compacted
//    block (order-sensitive, so two stores with equal checkpoints hold the
//    same prefix), and the count of transactions committed below it;
//  - a flat open-addressing commit index maps every committed transaction
//    frame's hash to its slot at finalization time, replacing the former
//    whole-chain tx_finalized scan with an O(1) probe. Index entries are
//    never dropped at compaction -- they *are* the checkpoint's committed-tx
//    digest set, so commit queries keep answering for compacted history.
//
// Invariants:
//  - tail covers exactly (checkpoint.slot, tip]; tail_first() == checkpoint
//    slot + 1; resident block count == tip - checkpoint.slot <= capacity;
//  - prefix_digest(s) (cumulative chain hash through slot s) is available
//    for any s in [checkpoint.slot, tip] and equal across consistent chains;
//  - no resident block is ever rehashed: append() takes the caller's hash
//    (computed when the block was proposed or admitted) as the new tip
//    hash, and the tail is parent-linked (asserted at append), so every
//    other resident block's hash is already stored as its successor's
//    parent_hash (hash_at). Compaction, prefix_digest and checkpoint_at read
//    hashes from there. append() also digests each transaction frame once,
//    for the commit index, and keeps those (digest, frame) pairs for the
//    tip block (tip_frames) so the node's delivery filter and mempool
//    reconciliation reuse them;
//  - append() is allocation-free in steady state for filler payloads: the
//    ring's capacity is reserved up front (address space only -- cells are
//    built as slots arrive, so a fresh store touches no ring pages and
//    block pointers stay stable), checkpoint folding is arithmetic, and the
//    index only grows with committed transactions (inherent commit data,
//    amortized doubling; O(committed txs) forever is the accepted cost of
//    answering commit queries for compacted history -- bounding it too, via
//    epoch segmentation, is a ROADMAP follow-on). bench_consensus keeps asserting
//    the zero-alloc contract; bench_storage's bounded-memory gate measures
//    the block side (frameless payloads), where O(tail) is exact.
//
// Slot arithmetic discipline: Slot is a 64-bit domain, container indices are
// size_t. Every conversion funnels through slot_index()/slot_count() below,
// so the compaction offset can never silently truncate (the former
// `slot <= chain_.size()` Slot-vs-size_t comparisons are gone).

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "common/serde.hpp"
#include "multishot/block.hpp"

namespace tbft::multishot {

/// Checked Slot -> container-index narrowing: the one place the 64-bit slot
/// domain meets size_t. `base` is the first slot of the container's range.
[[nodiscard]] constexpr std::size_t slot_index(Slot s, Slot base) noexcept {
  TBFT_ASSERT(s >= base);
  return static_cast<std::size_t>(s - base);
}

/// Checked count -> Slot widening (counts of consecutive slots are slots).
[[nodiscard]] constexpr Slot slot_count(std::size_t n) noexcept {
  return static_cast<Slot>(n);
}

/// Compaction summary of every finalized block below the tail. Also the unit
/// of durability and of checkpoint state transfer: a store restored from a
/// Checkpoint (plus its commit digest set) resumes exactly where the
/// compacted prefix ended.
struct Checkpoint {
  /// All slots <= slot are compacted (0 = nothing compacted yet).
  Slot slot{0};
  /// Cumulative chain hash through `slot`: fold of hash_combine over block
  /// hashes in slot order, seeded with kGenesisHash.
  std::uint64_t chain_hash{kGenesisHash};
  /// Transactions committed in compacted blocks (their digests stay in the
  /// commit index).
  std::uint64_t tx_count{0};
  /// Hash of the block AT `slot` (kGenesisHash when slot == 0): the parent
  /// the first post-checkpoint block must link to. Without it a restored
  /// store could not validate force_finalize / WAL-replay linkage.
  std::uint64_t boundary_hash{kGenesisHash};

  friend bool operator==(const Checkpoint&, const Checkpoint&) = default;

  void encode(serde::Writer& w) const {
    w.u64(slot);
    w.u64(chain_hash);
    w.u64(tx_count);
    w.u64(boundary_hash);
  }
  static Checkpoint decode(serde::Reader& r) {
    Checkpoint cp;
    cp.slot = r.u64();
    cp.chain_hash = r.u64();
    cp.tx_count = r.u64();
    cp.boundary_hash = r.u64();
    return cp;
  }
};

/// Fixed-size digest bloom over the transactions committed in one epoch of
/// compacted slots: the "ancient" tier of the epoch-segmented commit index.
/// Size and probe schedule are protocol constants, so two honest nodes that
/// rotated the same epoch hold bit-identical blooms (checkpoint state
/// transfer vouches blobs by hash across f+1 senders) and OR-merging is
/// well-defined.
struct EpochBloom {
  static constexpr std::size_t kBits = std::size_t{1} << 16;  // 8 KiB / epoch
  static constexpr std::size_t kWords = kBits / 64;
  static constexpr int kProbes = 4;

  Slot first{0};  ///< Covered slot range [first, last].
  Slot last{0};
  std::vector<std::uint64_t> words = std::vector<std::uint64_t>(kWords, 0);

  void add(std::uint64_t key) noexcept {
    const std::uint64_t h1 = mix64(key);
    const std::uint64_t h2 = mix64(key ^ 0x9E3779B97F4A7C15ULL) | 1;
    for (int i = 0; i < kProbes; ++i) {
      const std::uint64_t bit = (h1 + static_cast<std::uint64_t>(i) * h2) % kBits;
      words[static_cast<std::size_t>(bit >> 6)] |= std::uint64_t{1} << (bit & 63);
    }
  }
  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    const std::uint64_t h1 = mix64(key);
    const std::uint64_t h2 = mix64(key ^ 0x9E3779B97F4A7C15ULL) | 1;
    for (int i = 0; i < kProbes; ++i) {
      const std::uint64_t bit = (h1 + static_cast<std::uint64_t>(i) * h2) % kBits;
      if ((words[static_cast<std::size_t>(bit >> 6)] & (std::uint64_t{1} << (bit & 63))) == 0) {
        return false;
      }
    }
    return true;
  }
  /// OR-merge another bloom of the same geometry (range union).
  void merge(const EpochBloom& other) noexcept {
    first = first == 0 ? other.first : std::min(first, other.first);
    last = std::max(last, other.last);
    for (std::size_t i = 0; i < kWords; ++i) words[i] |= other.words[i];
  }

  void encode(serde::Writer& w) const {
    w.u64(first);
    w.u64(last);
    for (const std::uint64_t word : words) w.u64(word);
  }
  static EpochBloom decode(serde::Reader& r) {
    EpochBloom b;
    b.first = r.u64();
    b.last = r.u64();
    for (std::size_t i = 0; i < kWords; ++i) b.words[i] = r.u64();
    if (b.first < 1 || b.last < b.first) r.fail();
    return b;
  }
};

/// Committed-transaction digest set: frame hash -> slot. Two tiers:
///
///  - an exact tier -- a flat open-addressing hash table (linear probing,
///    power-of-two capacity) holding every entry above the rotation
///    boundary. Duplicate keys coexist (hash collisions between distinct
///    transactions); lookups walk the probe chain, so a collision can never
///    mask a commit;
///  - an epoch-segmented bloom tier (off unless rotation is driven): entries
///    whose slots fall a full epoch below the compaction checkpoint rotate
///    out of the table into one fixed-size EpochBloom per epoch, with the
///    oldest blooms OR-merged into a single "ancient" bloom past
///    kMaxResidentBlooms -- so resident memory is flat in committed-tx
///    count instead of growing ~16 B/tx forever. A bloom hit answers with
///    the epoch's last slot (the content is compacted; callers already
///    treat sub-checkpoint answers as digest-trusted) at the documented
///    false-positive rate; a miss is exact.
///
/// Rotation is canonical: epoch boundaries are multiples of the configured
/// epoch, one bloom per epoch, so honest nodes that rotated the same epochs
/// hold identical blooms and encode() yields byte-identical state blobs --
/// which is what lets checkpoint state transfer vouch a blob across f+1
/// senders by hash.
class CommitIndex {
 public:
  /// Resident epoch blooms kept before OR-merging into the ancient bloom.
  static constexpr std::size_t kMaxResidentBlooms = 8;

  CommitIndex() { table_.resize(kInitialCapacity); }

  void insert(std::uint64_t key, Slot slot) {
    TBFT_ASSERT(slot != 0);  // slot 0 marks empty cells
    if ((used_ + 1) * 4 > table_.size() * 3) grow();
    reinsert(Entry{key, slot});
  }

  /// Visit the slot of every entry with this key: the exact-tier probe
  /// chain first (stops early when `fn` returns true), then the bloom tiers
  /// (each hit visits the epoch's last slot). Returns true when some visit
  /// did.
  template <class Fn>
  bool find(std::uint64_t key, Fn&& fn) const {
    std::size_t i = static_cast<std::size_t>(mix64(key)) & (table_.size() - 1);
    while (table_[i].slot != 0) {
      if (table_[i].key == key && fn(table_[i].slot)) return true;
      i = (i + 1) & (table_.size() - 1);
    }
    for (const EpochBloom& b : blooms_) {
      if (b.contains(key) && fn(b.last)) return true;
    }
    if (ancient_.has_value() && ancient_->contains(key) && fn(ancient_->last)) return true;
    return false;
  }

  /// First-inserted slot for `key`, or 0 when absent.
  [[nodiscard]] Slot first_slot(std::uint64_t key) const {
    Slot found = 0;
    find(key, [&](Slot s) {
      found = s;
      return true;
    });
    return found;
  }

  /// Rotate whole epochs of entries into blooms while the next epoch
  /// boundary (a multiple of `epoch`) is at or below `compacted_upto`.
  /// Rotation is the one place the exact table shrinks: survivors rebuild
  /// into the smallest capacity that fits them.
  void rotate_epochs(Slot compacted_upto, Slot epoch) {
    TBFT_ASSERT(epoch > 0);
    while (rotated_below_ + epoch <= compacted_upto) rotate_one(rotated_below_ + epoch);
  }

  /// All entries with slot <= rotated_below() live in blooms, not the table.
  [[nodiscard]] Slot rotated_below() const noexcept { return rotated_below_; }
  [[nodiscard]] std::size_t bloom_count() const noexcept {
    return blooms_.size() + (ancient_.has_value() ? 1 : 0);
  }
  [[nodiscard]] std::uint64_t rotated_count() const noexcept { return rotated_count_; }

  /// Canonical serialization of the digest set restricted to slots <= upto:
  /// exact entries sorted by (slot, key) plus the bloom tiers. Two honest
  /// nodes with equal rotation state produce byte-identical output.
  void encode(serde::Writer& w, Slot upto) const {
    w.u64(rotated_below_);
    std::vector<Entry> sorted;
    sorted.reserve(used_);
    for (const Entry& e : table_) {
      if (e.slot != 0 && e.slot <= upto) sorted.push_back(e);
    }
    std::sort(sorted.begin(), sorted.end(), [](const Entry& a, const Entry& b) {
      return a.slot != b.slot ? a.slot < b.slot : a.key < b.key;
    });
    w.varint(sorted.size());
    for (const Entry& e : sorted) {
      w.u64(e.key);
      w.u64(e.slot);
    }
    w.varint(blooms_.size());
    for (const EpochBloom& b : blooms_) b.encode(w);
    w.boolean(ancient_.has_value());
    if (ancient_.has_value()) ancient_->encode(w);
  }

  /// Replace the whole index with a decoded digest set. Total: returns
  /// false (leaving a valid empty index) on any malformed input.
  bool install(serde::Reader& r) {
    if (install_impl(r)) return true;
    clear();
    return false;
  }

  [[nodiscard]] std::size_t size() const noexcept { return used_; }
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    std::size_t bytes = table_.size() * sizeof(Entry);
    bytes += blooms_.size() * (sizeof(EpochBloom) + EpochBloom::kWords * 8);
    if (ancient_.has_value()) bytes += sizeof(EpochBloom) + EpochBloom::kWords * 8;
    return bytes;
  }

 private:
  struct Entry {
    std::uint64_t key{0};
    Slot slot{0};  // 0 = empty
  };
  static constexpr std::size_t kInitialCapacity = 64;
  /// Byzantine resource-exhaustion bound on installed blobs (~1 GiB of
  /// entries); honest digest sets are orders of magnitude smaller.
  static constexpr std::uint64_t kMaxInstallEntries = std::uint64_t{1} << 26;

  void clear() {
    table_.assign(kInitialCapacity, Entry{});
    used_ = 0;
    rotated_below_ = 0;
    rotated_count_ = 0;
    blooms_.clear();
    ancient_.reset();
  }

  bool install_impl(serde::Reader& r) {
    clear();
    rotated_below_ = r.u64();
    const std::uint64_t count = r.varint();
    if (!r.ok() || count > kMaxInstallEntries) return false;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t key = r.u64();
      const Slot slot = r.u64();
      if (!r.ok() || slot == 0 || slot <= rotated_below_) return false;
      insert(key, slot);
    }
    const std::uint64_t nblooms = r.varint();
    if (!r.ok() || nblooms > kMaxResidentBlooms) return false;
    Slot prev_last = 0;
    for (std::uint64_t i = 0; i < nblooms; ++i) {
      EpochBloom b = EpochBloom::decode(r);
      if (!r.ok() || b.first <= prev_last || b.last > rotated_below_) return false;
      prev_last = b.last;
      blooms_.push_back(std::move(b));
    }
    if (r.boolean()) {
      EpochBloom b = EpochBloom::decode(r);
      if (!r.ok() || (!blooms_.empty() && b.last >= blooms_.front().first)) return false;
      ancient_.emplace(std::move(b));
    }
    return r.ok();
  }

  void reinsert(const Entry& e) {
    std::size_t i = static_cast<std::size_t>(mix64(e.key)) & (table_.size() - 1);
    while (table_[i].slot != 0) i = (i + 1) & (table_.size() - 1);
    table_[i] = e;
    ++used_;
  }

  void grow() {
    std::vector<Entry> old;
    old.swap(table_);
    table_.resize(old.size() * 2);
    used_ = 0;
    for (const Entry& e : old) {
      if (e.slot != 0) reinsert(e);
    }
  }

  /// Move every entry in (rotated_below_, upto] into one fresh bloom.
  void rotate_one(Slot upto) {
    EpochBloom bloom;
    bloom.first = rotated_below_ + 1;
    bloom.last = upto;
    std::vector<Entry> keep;
    keep.reserve(used_);
    for (const Entry& e : table_) {
      if (e.slot == 0) continue;
      if (e.slot <= upto) {
        bloom.add(e.key);
        ++rotated_count_;
      } else {
        keep.push_back(e);
      }
    }
    std::size_t cap = kInitialCapacity;
    while (keep.size() * 4 > cap * 3) cap *= 2;
    table_.assign(cap, Entry{});
    used_ = 0;
    for (const Entry& e : keep) reinsert(e);
    rotated_below_ = upto;
    blooms_.push_back(std::move(bloom));
    if (blooms_.size() > kMaxResidentBlooms) {
      if (!ancient_.has_value()) {
        ancient_.emplace(std::move(blooms_.front()));
      } else {
        ancient_->merge(blooms_.front());
      }
      blooms_.erase(blooms_.begin());
    }
  }

  std::vector<Entry> table_;
  std::size_t used_{0};
  Slot rotated_below_{0};
  std::uint64_t rotated_count_{0};
  std::vector<EpochBloom> blooms_;
  std::optional<EpochBloom> ancient_;
};

/// One transaction frame of the tip block and its fnv1a64 digest, as the
/// commit index received it (FinalizedStore::tip_frames).
struct FrameDigest {
  std::uint64_t digest{0};
  std::span<const std::uint8_t> frame;
};

class FinalizedStore {
 public:
  /// Default tail: long enough that ChainInfo answering, range-sync serving
  /// and every in-simulation consistency check read from resident blocks;
  /// tests exercising compaction pass a small capacity explicitly.
  static constexpr std::size_t kDefaultTailCapacity = 4096;

  /// `commit_epoch_slots` > 0 turns on epoch rotation of the commit index
  /// (see CommitIndex): whenever compaction advances the checkpoint past an
  /// epoch boundary, the entries of that epoch rotate into a bloom.
  explicit FinalizedStore(std::size_t tail_capacity = kDefaultTailCapacity,
                          Slot commit_epoch_slots = 0)
      : cap_(tail_capacity), epoch_slots_(commit_epoch_slots) {
    TBFT_ASSERT(tail_capacity >= 8);  // finalization bursts notify before compaction
    ring_.reserve(cap_);
  }

  /// Append the next finalized block: must be tip+1 and link to tip_hash()
  /// (asserted; ChainStore checks linkage before it gets here). `h` is the
  /// caller's b.hash(). Compacts the oldest resident block into the
  /// checkpoint when the tail is full.
  void append(Block&& b, std::uint64_t h);

  /// Total finalized slots == tip slot (0 = empty chain).
  [[nodiscard]] Slot tip() const noexcept { return tip_; }
  [[nodiscard]] std::uint64_t tip_hash() const noexcept { return tip_hash_; }

  /// First slot still resident in the tail (tip+1 when nothing is resident).
  [[nodiscard]] Slot tail_first() const noexcept { return checkpoint_.slot + 1; }

  /// Resident finalized block, or nullptr when `s` is unfinalized or
  /// compacted past the tail.
  [[nodiscard]] const Block* block_at(Slot s) const noexcept {
    if (s < tail_first() || s > tip_) return nullptr;
    return &cell(s);
  }

  /// Content hash of the resident finalized block at `s` (nullopt exactly
  /// when block_at(s) is nullptr), without rehashing it.
  [[nodiscard]] std::optional<std::uint64_t> hash_at(Slot s) const noexcept {
    if (s < tail_first() || s > tip_) return std::nullopt;
    return resident_hash(s);
  }

  /// (digest, frame) pairs of the tip block's transaction frames, in payload
  /// order, as inserted into the commit index. Valid until the next append,
  /// restore or install_checkpoint.
  [[nodiscard]] std::span<const FrameDigest> tip_frames() const noexcept {
    return tip_frames_;
  }

  [[nodiscard]] const Checkpoint& checkpoint() const noexcept { return checkpoint_; }

  /// Cumulative chain hash through slot `s` (see Checkpoint::chain_hash).
  /// Available for s in [checkpoint.slot, tip]; nullopt outside -- compacted
  /// prefixes below the checkpoint can no longer be digested per slot.
  [[nodiscard]] std::optional<std::uint64_t> prefix_digest(Slot s) const;

  /// Slot that committed a transaction with this frame hash (0 = none).
  /// Byte-exact for resident slots; compacted slots answer from the digest
  /// set alone (a 64-bit collision is the accepted false-positive bound).
  /// The second form takes the caller's precomputed fnv1a64(tx).
  [[nodiscard]] Slot commit_slot(std::span<const std::uint8_t> tx) const {
    return commit_slot(tx, fnv1a64(tx));
  }
  [[nodiscard]] Slot commit_slot(std::span<const std::uint8_t> tx,
                                 std::uint64_t hash) const;

  /// True when `tx` is committed at some slot strictly below `before`.
  /// Exactly-once delivery probe: a frame finalizing at `before` that is
  /// already committed earlier is a duplicate inclusion and is filtered out
  /// of delivery (the index holds both slots once `before` is appended).
  [[nodiscard]] bool committed_before(std::span<const std::uint8_t> tx,
                                      std::uint64_t hash, Slot before) const;

  [[nodiscard]] const CommitIndex& commit_index() const noexcept { return index_; }

  // --- durability & state transfer ---------------------------------------

  /// Resume an EMPTY store from a durable checkpoint: the compacted prefix
  /// is adopted wholesale, the tail restarts empty at checkpoint.slot. WAL
  /// replay then appends the surviving tail blocks. Pre-start only.
  void restore(const Checkpoint& cp) {
    TBFT_ASSERT(tip_ == 0);
    reset_tail(cp);
  }

  /// Adopt a vouched remote checkpoint that is AHEAD of this store's tip
  /// (checkpoint state transfer). Everything resident is discarded -- the
  /// remote prefix subsumes it (both are finalized prefixes of the same
  /// chain, so no committed data is lost; the commit digest set arrives
  /// separately via install_commit_state). Returns false when cp is not
  /// ahead of the current tip.
  bool install_checkpoint(const Checkpoint& cp) {
    if (cp.slot <= tip_) return false;
    reset_tail(cp);
    return true;
  }

  /// Recompute the checkpoint the store WOULD hold if compaction had folded
  /// everything through slot `s`: what a checkpoint-transfer responder
  /// serves for a requester-chosen anchor. Available for any s in
  /// [checkpoint.slot, tip]; nullopt outside (history below the checkpoint
  /// is gone, slots above the tip do not exist yet).
  [[nodiscard]] std::optional<Checkpoint> checkpoint_at(Slot s) const;

  /// Canonical commit digest set restricted to slots <= upto (defaults to
  /// the checkpoint slot: exactly the compacted prefix's commits). Paired
  /// with install_commit_state on the receiving side.
  void encode_commit_state(serde::Writer& w, Slot upto) const { index_.encode(w, upto); }
  void encode_commit_state(serde::Writer& w) const { encode_commit_state(w, checkpoint_.slot); }
  bool install_commit_state(serde::Reader& r) { return index_.install(r); }

  /// Bytes held live by the store: built ring cells + payload capacities +
  /// index table and blooms (bench_storage's bounded-memory figure).
  /// Reserved but unbuilt ring cells are untouched address space, and
  /// tip_frames() is reused scratch (views into resident payloads, at most
  /// one block's frames); neither counts.
  [[nodiscard]] std::size_t resident_bytes() const noexcept;

  [[nodiscard]] std::size_t tail_capacity() const noexcept { return cap_; }
  [[nodiscard]] Slot commit_epoch_slots() const noexcept { return epoch_slots_; }

 private:
  [[nodiscard]] Block& cell(Slot s) noexcept { return ring_[slot_index(s, base_) % cap_]; }
  [[nodiscard]] const Block& cell(Slot s) const noexcept {
    return ring_[slot_index(s, base_) % cap_];
  }

  /// Hash of resident slot `s`: the tip's is tip_hash_; any other's is the
  /// parent_hash of the block after it (the tail is parent-linked).
  [[nodiscard]] std::uint64_t resident_hash(Slot s) const noexcept {
    return s == tip_ ? tip_hash_ : cell(s + 1).parent_hash;
  }

  /// Empty the tail onto `cp`: the ring restarts at cp.slot + 1. Cells are
  /// destroyed (their payloads freed); the reserved capacity stays.
  void reset_tail(const Checkpoint& cp) {
    ring_.clear();
    tip_frames_.clear();
    base_ = cp.slot + 1;
    checkpoint_ = cp;
    tip_ = cp.slot;
    tip_hash_ = cp.boundary_hash;
  }

  std::size_t cap_;
  std::vector<Block> ring_;  // index = (slot - base_) % cap_; grows to cap_
  Slot base_{1};             // first slot of the ring since the last reset
  Slot epoch_slots_{0};      // 0 = commit-index epoch rotation off
  Slot tip_{0};
  std::uint64_t tip_hash_{kGenesisHash};
  Checkpoint checkpoint_{};
  CommitIndex index_;
  std::vector<FrameDigest> tip_frames_;  // high-water storage, see tip_frames()
};

}  // namespace tbft::multishot
