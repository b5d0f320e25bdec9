// Consensus-state-layer bench (DESIGN_PERF.md "Consensus state layer"):
// isolates the cost of protocol-state processing -- candidate storage, vote
// counting, notarization, depth-4 finalization, window pruning -- from the
// messaging layer bench_hotpath already covers, and enforces the flat
// SlotWindow layer's contract by exit code:
//
//   1. steady-state processing of delivered votes/proposals performs ZERO
//      heap allocations (counting global operator new over measured rounds;
//      warm-up rounds reach the slab/bucket/chain high-water mark first);
//   2. slots finalized/sec through the flat layer is >= 2x a faithful
//      map-backed reference (the seed's layout: std::map candidates and
//      notarizations, std::map<(view, hash), std::set<NodeId>> votes);
//   3. both layers agree on every finalized block (cross-check).
//
// The synthetic stream mirrors the good case one node observes: per slot one
// proposal (candidate + leader vote) followed by the remaining quorum of
// votes, plus one stale-view noise vote to exercise bucket search. Blocks
// carry empty payloads so the measurement isolates state-layer cost, not
// payload byte retention (which is inherent chain data, not bookkeeping).
//
// Also reports an end-to-end figure: slots finalized/sec through full
// MultishotNodes over the simulated network (messaging + state together).
//
// Run: bench_consensus [slots] [n] [min_speedup]. Exit code 0 iff all
// invariants hold; min_speedup (default 2.0) is the enforced flat-vs-map
// ratio -- CI smoke runs pass a lower bar so wall-clock noise on shared
// runners cannot flake the gate. Emits BENCH_consensus.json for trajectory
// tracking.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "bench_alloc_count.hpp"
#include "bench_json.hpp"
#include "multishot/chain.hpp"
#include "multishot/node.hpp"
#include "multishot/slot_window.hpp"
#include "sim/runtime.hpp"

namespace tbft::bench {
namespace {

using namespace tbft::multishot;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

Block make_block(Slot s, std::uint64_t parent) {
  Block b;
  b.slot = s;
  b.parent_hash = parent;
  b.proposer = static_cast<NodeId>(s % 1024);
  return b;  // empty payload: state-layer cost only
}

/// The flat state layer under test: the real ChainStore (SlotWindow inside)
/// plus the real per-slot vote containers the node uses.
class FlatHarness {
 public:
  explicit FlatHarness(std::uint32_t n)
      : n_(n), qp_(QuorumParams::max_faults(n)), slots_(ChainStore::kWindow + 1, 1) {}

  /// One slot of good-case traffic: a proposal, then votes until quorum,
  /// then one stale-view noise vote.
  void run_slot(Slot s) {
    Block b = make_block(s, parent_);
    const std::uint64_t h = b.hash();
    chain_.add_block(b, b.hash());
    SlotVotes* st = slots_.ensure(s);
    st->proposal_by_view.try_emplace(0, h);
    ++ops_;
    for (NodeId voter = 0; voter < qp_.quorum_size(); ++voter) {
      NodeBitmap& voters = st->votes.voters(0, h, n_);
      voters.insert(voter);
      ++ops_;
      if (qp_.is_quorum(voters.count()) && chain_.notarize(s, 0, h)) {
        chain_.try_finalize();
      }
    }
    NodeBitmap& noise = st->votes.voters(0, h ^ 0x5EED, n_);  // losing candidate
    noise.insert(0);
    ++ops_;
    slots_.advance_base(chain_.first_unfinalized());
    parent_ = h;
  }

  [[nodiscard]] std::uint64_t ops() const noexcept { return ops_; }
  [[nodiscard]] const ChainStore& chain() const noexcept { return chain_; }
  [[nodiscard]] std::size_t window_slabs() const noexcept {
    return chain_.window_slabs() + slots_.slab_count();
  }

 private:
  struct SlotVotes {
    ViewHashMap proposal_by_view{32};
    VoteLedger votes{128};
    void reset() {
      proposal_by_view.reset();
      votes.reset();
    }
  };

  std::uint32_t n_;
  QuorumParams qp_;
  ChainStore chain_;
  SlotWindow<SlotVotes> slots_;
  std::uint64_t parent_{kGenesisHash};
  std::uint64_t ops_{0};
};

/// Map-backed reference: the seed's state layout, run over the identical
/// stream. Candidates in std::map<(slot, hash), Block>, notarizations in
/// std::map<Slot, Notarization>, votes in std::map<(view, hash), std::set>.
class MapHarness {
 public:
  explicit MapHarness(std::uint32_t n) : n_(n), qp_(QuorumParams::max_faults(n)) {}

  void run_slot(Slot s) {
    Block b = make_block(s, parent_);
    const std::uint64_t h = b.hash();
    if (s >= first_unfinalized() && s <= first_unfinalized() + ChainStore::kWindow) {
      blocks_.emplace(std::make_pair(s, h), b);
    }
    RefSlot& st = slots_[s];
    st.proposal_by_view.try_emplace(0, h);
    ++ops_;
    for (NodeId voter = 0; voter < qp_.quorum_size(); ++voter) {
      auto& voters = st.votes[{View{0}, h}];
      voters.insert(voter);
      ++ops_;
      if (qp_.is_quorum(voters.size()) && notarize(s, 0, h)) {
        try_finalize();
      }
    }
    st.votes[{View{0}, h ^ 0x5EED}].insert(0);
    ++ops_;
    prune(first_unfinalized());
    parent_ = h;
  }

  [[nodiscard]] std::uint64_t ops() const noexcept { return ops_; }
  [[nodiscard]] Slot first_unfinalized() const noexcept {
    return slot_count(chain_.size()) + 1;
  }
  [[nodiscard]] Slot finalized_count() const noexcept { return slot_count(chain_.size()); }
  /// Cumulative chain hash (same fold as FinalizedStore::prefix_digest).
  [[nodiscard]] std::uint64_t chain_digest() const noexcept {
    std::uint64_t h = kGenesisHash;
    for (const Block& b : chain_) h = hash_combine(h, b.hash());
    return h;
  }

 private:
  struct RefSlot {
    std::map<View, std::uint64_t> proposal_by_view;
    std::map<std::pair<View, std::uint64_t>, std::set<NodeId>> votes;
  };

  bool notarize(Slot slot, View view, std::uint64_t hash) {
    auto [it, inserted] = notarized_.try_emplace(slot, Notarization{view, hash});
    if (!inserted) {
      if (view <= it->second.view) return false;
      it->second = Notarization{view, hash};
    }
    return true;
  }

  std::size_t suffix_length() const {
    std::size_t len = 0;
    Slot s = first_unfinalized();
    std::uint64_t parent = chain_.empty() ? kGenesisHash : chain_.back().hash();
    while (true) {
      const auto nit = notarized_.find(s);
      if (nit == notarized_.end()) break;
      const auto bit = blocks_.find({s, nit->second.hash});
      if (bit == blocks_.end() || bit->second.parent_hash != parent) break;
      parent = nit->second.hash;
      ++len;
      ++s;
    }
    return len;
  }

  void try_finalize() {
    while (suffix_length() >= 4) {
      const Slot s = first_unfinalized();
      const auto& n = notarized_.at(s);
      chain_.push_back(blocks_.at({s, n.hash}));
      notarized_.erase(s);
    }
  }

  void prune(Slot first) {
    for (auto it = blocks_.begin(); it != blocks_.end();) {
      it = (it->first.first < first) ? blocks_.erase(it) : std::next(it);
    }
    for (auto it = notarized_.begin(); it != notarized_.end();) {
      it = (it->first < first) ? notarized_.erase(it) : std::next(it);
    }
    for (auto it = slots_.begin(); it != slots_.end();) {
      it = (it->first < first) ? slots_.erase(it) : std::next(it);
    }
  }

  std::uint32_t n_;
  QuorumParams qp_;
  std::vector<Block> chain_;
  std::map<std::pair<Slot, std::uint64_t>, Block> blocks_;
  std::map<Slot, Notarization> notarized_;
  std::map<Slot, RefSlot> slots_;
  std::uint64_t parent_{kGenesisHash};
  std::uint64_t ops_{0};
};

struct LayerResult {
  std::uint64_t slots{0};
  std::uint64_t ops{0};
  std::uint64_t allocs{0};
  double secs{0};
  [[nodiscard]] double slots_per_sec() const { return slots / secs; }
  [[nodiscard]] double ns_per_op() const { return ops ? secs * 1e9 / ops : 0.0; }
};

/// End-to-end cross-check + throughput: n full MultishotNodes over the
/// simulated network finalizing a bounded chain.
double run_full_pipeline(std::uint32_t n, Slot slots) {
  sim::SimConfig sc;
  sc.net.gst = 0;
  sc.net.delta_actual = 1 * sim::kMillisecond;
  sc.net.delta_bound = 10 * sim::kMillisecond;
  sc.keep_message_trace = false;
  sim::Simulation simulation(sc);

  MultishotConfig cfg;
  cfg.n = n;
  cfg.f = (n - 1) / 3;
  cfg.max_slots = slots;
  for (std::uint32_t i = 0; i < n; ++i) {
    simulation.add_node(std::make_unique<MultishotNode>(cfg));
  }
  const Slot target = slots - 4;  // the tail past max_slots cannot finalize
  const auto done = [&] {
    for (std::uint32_t i = 0; i < n; ++i) {
      if (simulation.node_as<MultishotNode>(i).finalized_count() < target) return false;
    }
    return true;
  };
  const auto t0 = std::chrono::steady_clock::now();
  simulation.start();
  simulation.run_until_pred(done, 3600 * sim::kSecond);
  const double secs = seconds_since(t0);
  return static_cast<double>(target) / secs;
}

}  // namespace
}  // namespace tbft::bench

int main(int argc, char** argv) {
  using namespace tbft;
  using namespace tbft::bench;
  using namespace tbft::multishot;

  const std::uint64_t slots = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200000;
  const std::uint32_t n = argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 16;
  const double min_speedup = argc > 3 ? std::atof(argv[3]) : 2.0;
  const std::uint64_t warmup = std::max<std::uint64_t>(ChainStore::kWindow * 4, slots / 10);

  std::printf("== bench_consensus: flat SlotWindow state layer (slots=%llu, n=%u) ==\n",
              static_cast<unsigned long long>(slots), n);

  // Flat layer: warm up to the slab/bucket/chain high-water mark, then
  // measure with the allocation counter armed.
  FlatHarness flat(n);
  Slot next = 1;
  for (; next <= warmup; ++next) flat.run_slot(next);
  const std::uint64_t ops0 = flat.ops();
  const std::uint64_t allocs0 = alloc_count().load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (const Slot stop = next + slots; next < stop; ++next) flat.run_slot(next);
  LayerResult flat_res;
  flat_res.secs = seconds_since(t0);
  flat_res.allocs = alloc_count().load(std::memory_order_relaxed) - allocs0;
  flat_res.slots = slots;
  flat_res.ops = flat.ops() - ops0;

  // Map-backed reference over the identical stream (warm-up for parity).
  MapHarness mapped(n);
  Slot mnext = 1;
  for (; mnext <= warmup; ++mnext) mapped.run_slot(mnext);
  const std::uint64_t mops0 = mapped.ops();
  const auto t1 = std::chrono::steady_clock::now();
  for (const Slot stop = mnext + slots; mnext < stop; ++mnext) mapped.run_slot(mnext);
  LayerResult map_res;
  map_res.secs = seconds_since(t1);
  map_res.slots = slots;
  map_res.ops = mapped.ops() - mops0;

  // Cross-check: both layers finalized the same chain. The flat layer now
  // compacts history behind its tail, so the whole-chain comparison runs
  // over cumulative digests (order-sensitive fold of every block hash),
  // which covers compacted and resident slots alike.
  const Slot flat_count = flat.chain().finalized_count();
  const auto flat_digest = flat.chain().prefix_digest(flat_count);
  const bool chains_match = flat_count > 0 && flat_count == mapped.finalized_count() &&
                            flat_digest.has_value() && *flat_digest == mapped.chain_digest();

  const double speedup = flat_res.slots_per_sec() / map_res.slots_per_sec();
  const double allocs_per_slot =
      static_cast<double>(flat_res.allocs) / static_cast<double>(slots);

  // End-to-end run at its own (small) cluster size: the figure measures the
  // whole node pipeline, not the state-layer harness's n above.
  const std::uint32_t e2e_n = 4;
  const double e2e_slots_per_sec = run_full_pipeline(e2e_n, 2000);

  std::printf("flat layer:  %9.0f slots/s  (%.1f ns per delivered vote/proposal, %llu ops)\n",
              flat_res.slots_per_sec(), flat_res.ns_per_op(),
              static_cast<unsigned long long>(flat_res.ops));
  std::printf("map layer:   %9.0f slots/s  (%.1f ns per delivered vote/proposal, %llu ops)\n",
              map_res.slots_per_sec(), map_res.ns_per_op(),
              static_cast<unsigned long long>(map_res.ops));
  std::printf("speedup vs map-backed reference: %.2fx %s %.1fx]\n", speedup,
              speedup >= min_speedup ? "[ok: >=" : "[FAIL: <", min_speedup);
  std::printf("steady-state allocations: %llu over %llu slots (%.4f/slot) %s\n",
              static_cast<unsigned long long>(flat_res.allocs),
              static_cast<unsigned long long>(slots), allocs_per_slot,
              flat_res.allocs == 0 ? "[ok: allocation-free]" : "[FAIL]");
  std::printf("finalized chains: flat=%llu map=%llu %s\n",
              static_cast<unsigned long long>(flat_count),
              static_cast<unsigned long long>(mapped.finalized_count()),
              chains_match ? "[ok: identical digests]" : "[FAIL: diverged]");
  std::printf("window slabs (peak live slots): %zu\n", flat.window_slabs());
  std::printf("full pipeline (n=%u, sim network): %9.0f slots finalized/s\n", e2e_n,
              e2e_slots_per_sec);

  JsonReport report("consensus");
  report.field("slots", slots)
      .field("n", n)
      .field("flat_slots_per_sec", flat_res.slots_per_sec())
      .field("flat_ns_per_op", flat_res.ns_per_op())
      .field("map_slots_per_sec", map_res.slots_per_sec())
      .field("map_ns_per_op", map_res.ns_per_op())
      .field("speedup_vs_map", speedup)
      .field("steady_allocs", flat_res.allocs)
      .field("allocs_per_slot", allocs_per_slot)
      .field("window_slabs", static_cast<std::uint64_t>(flat.window_slabs()))
      .field("e2e_n", e2e_n)
      .field("e2e_slots_per_sec", e2e_slots_per_sec);
  report.write();

  const bool ok = flat_res.allocs == 0 && speedup >= min_speedup && chains_match;
  std::printf("%s\n", ok ? "ALL CONSENSUS-STATE INVARIANTS HOLD"
                         : "CONSENSUS-STATE INVARIANT VIOLATION");
  return ok ? 0 : 1;
}
