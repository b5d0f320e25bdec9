#include "multishot/finalized_store.hpp"

#include <algorithm>
#include <utility>

namespace tbft::multishot {

void FinalizedStore::append(Block&& b, std::uint64_t h) {
  // Linkage is what lets resident_hash() read hashes instead of computing them.
  TBFT_ASSERT(b.slot == tip_ + 1 && b.parent_hash == tip_hash_);
  // Compact the oldest resident block before its ring cell is overwritten:
  // fold its hash into the cumulative chain hash and count its committed
  // transactions (their digests are already in the index). The move-assign
  // below then frees the cell's old payload buffer.
  if (tip_ >= tail_first() && slot_count(cap_) == tip_ - checkpoint_.slot) {
    const Block& oldest = cell(tail_first());
    const std::uint64_t oldest_hash = resident_hash(oldest.slot);
    checkpoint_.chain_hash = hash_combine(checkpoint_.chain_hash, oldest_hash);
    for_each_frame(oldest.payload,
                   [this](std::span<const std::uint8_t>) { ++checkpoint_.tx_count; });
    checkpoint_.slot = oldest.slot;
    checkpoint_.boundary_hash = oldest_hash;
    if (epoch_slots_ > 0) index_.rotate_epochs(checkpoint_.slot, epoch_slots_);
  }
  tip_ = b.slot;
  tip_hash_ = h;
  Block* c = nullptr;
  if (ring_.size() < cap_) {
    // Lazy fill: slots arrive in order from base_, so the next cell is the
    // next one built (capacity is reserved -- no reallocation).
    TBFT_ASSERT(slot_index(tip_, base_) == ring_.size());
    c = &ring_.emplace_back(std::move(b));
  } else {
    c = &cell(tip_);
    *c = std::move(b);
  }
  tip_frames_.clear();
  for_each_frame(c->payload, [this](std::span<const std::uint8_t> f) {
    const std::uint64_t d = fnv1a64(f);
    index_.insert(d, tip_);
    tip_frames_.push_back(FrameDigest{d, f});
  });
}

std::optional<std::uint64_t> FinalizedStore::prefix_digest(Slot s) const {
  if (s < checkpoint_.slot || s > tip_) return std::nullopt;
  std::uint64_t h = checkpoint_.chain_hash;
  for (Slot t = tail_first(); t <= s; ++t) h = hash_combine(h, resident_hash(t));
  return h;
}

Slot FinalizedStore::commit_slot(std::span<const std::uint8_t> tx,
                                 std::uint64_t hash) const {
  Slot found = 0;
  index_.find(hash, [&](Slot s) {
    if (const Block* b = block_at(s); b != nullptr) {
      // Resident slot: confirm the bytes (collisions keep probing).
      bool match = false;
      for_each_frame(b->payload, [&](std::span<const std::uint8_t> f) {
        match = match || (f.size() == tx.size() &&
                          std::equal(f.begin(), f.end(), tx.begin()));
      });
      if (!match) return false;
    }
    // Compacted slot: the digest set is the only witness left; trust it.
    found = s;
    return true;
  });
  return found;
}

bool FinalizedStore::committed_before(std::span<const std::uint8_t> tx,
                                      std::uint64_t hash, Slot before) const {
  bool found = false;
  index_.find(hash, [&](Slot s) {
    if (s >= before) return false;
    if (const Block* b = block_at(s); b != nullptr) {
      // Resident slot: confirm the bytes (collisions keep probing).
      bool match = false;
      for_each_frame(b->payload, [&](std::span<const std::uint8_t> f) {
        match = match || (f.size() == tx.size() &&
                          std::equal(f.begin(), f.end(), tx.begin()));
      });
      if (!match) return false;
    }
    found = true;
    return true;
  });
  return found;
}

std::optional<Checkpoint> FinalizedStore::checkpoint_at(Slot s) const {
  if (s < checkpoint_.slot || s > tip_) return std::nullopt;
  Checkpoint cp = checkpoint_;
  for (Slot t = tail_first(); t <= s; ++t) {
    const std::uint64_t h = resident_hash(t);
    cp.chain_hash = hash_combine(cp.chain_hash, h);
    for_each_frame(cell(t).payload, [&cp](std::span<const std::uint8_t>) { ++cp.tx_count; });
    cp.slot = t;
    cp.boundary_hash = h;
  }
  return cp;
}

std::size_t FinalizedStore::resident_bytes() const noexcept {
  std::size_t bytes = ring_.size() * sizeof(Block) + index_.resident_bytes();
  for (const Block& b : ring_) bytes += b.payload.capacity();
  return bytes;
}

}  // namespace tbft::multishot
