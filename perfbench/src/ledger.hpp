#pragma once
// The benchmark's commit ledger: which replica delivered which request, and
// when the (f+1)-th distinct replica did.
//
// An unauthenticated client cannot trust fewer than f+1 matching replies,
// so a request counts as committed only once f+1 *distinct* replicas have
// delivered it. Deliveries are keyed by observer (one per replica
// incarnation, so a replica restarted from its WAL is a new observer of the
// same replica): a second delivery by the same observer is a duplicate, and
// a frame that is not a request this run generated -- byte for byte -- is
// foreign. Either is a correctness violation.
//
// Thread-safe: replica threads deliver concurrently on some hosts (each
// SocketHost serializes only its own commits), so every entry point locks.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "multishot/block.hpp"
#include "shard/router.hpp"
#include "workload/request.hpp"

namespace perfbench {

inline constexpr std::int64_t kNotYet = std::numeric_limits<std::int64_t>::max();

class CommitLedger {
 public:
  /// `n` replicas tolerating `f` faults, `shards` chains per replica.
  CommitLedger(std::uint32_t n, std::uint32_t f, std::uint32_t shards)
      : n_(n), f_(f), router_(shards) {
    for (std::uint32_t r = 0; r < n; ++r) observer_replica_.push_back(r);
    shard_f1_.assign(shards, 0);
  }

  /// Register a request before it is submitted; returns its ledger index.
  /// Indices are dense, in registration order.
  std::uint32_t add(std::uint64_t tag, std::int64_t scheduled_ns, std::uint32_t bytes) {
    std::lock_guard<std::mutex> lk(mx_);
    const auto idx = static_cast<std::uint32_t>(recs_.size());
    index_.emplace(tag, idx);
    recs_.push_back(Rec{scheduled_ns, kNotYet, tag, 0, bytes, 0, 0});
    return idx;
  }

  /// Set the scheduled times of requests [first, first + scheduled.size()).
  void rebase(std::uint32_t first, const std::vector<std::int64_t>& scheduled) {
    std::lock_guard<std::mutex> lk(mx_);
    for (std::size_t i = 0; i < scheduled.size() && first + i < recs_.size(); ++i) {
      recs_[first + i].scheduled = scheduled[i];
    }
  }

  /// Called with a request's tag when it reaches f+1, under the ledger's
  /// lock (single-threaded simulator clients settle their retry books here).
  void set_f1_listener(std::function<void(std::uint64_t)> fn) { f1_listener_ = std::move(fn); }

  /// A new observer for `replica` (a restarted incarnation); returns its id.
  std::uint32_t add_observer(std::uint32_t replica) {
    std::lock_guard<std::mutex> lk(mx_);
    observer_replica_.push_back(replica);
    return static_cast<std::uint32_t>(observer_replica_.size() - 1);
  }

  /// One committed block as `observer` delivered it at `now_ns`.
  void deliver(std::uint32_t observer, std::uint64_t stream,
               std::span<const std::uint8_t> payload, std::int64_t now_ns) {
    std::lock_guard<std::mutex> lk(mx_);
    tbft::multishot::for_each_frame(payload, [&](std::span<const std::uint8_t> frame) {
      deliver_frame(observer, stream, frame, now_ns);
    });
  }

  struct Totals {
    std::uint64_t requests{0};
    std::uint64_t delivered_any{0};  ///< requests at least one replica delivered
    std::uint64_t f1{0};             ///< requests f+1 distinct replicas delivered
    std::uint64_t all{0};            ///< requests every replica delivered
    std::uint64_t duplicates{0};
    std::uint64_t foreign{0};
    std::uint64_t misrouted{0};
    std::vector<std::uint64_t> f1_per_shard;
  };
  [[nodiscard]] Totals totals() const {
    std::lock_guard<std::mutex> lk(mx_);
    Totals t = totals_;
    t.requests = recs_.size();
    t.f1_per_shard = shard_f1_;
    return t;
  }

  /// Requests f+1 distinct replicas delivered so far.
  [[nodiscard]] std::uint64_t f1_count() const {
    std::lock_guard<std::mutex> lk(mx_);
    return totals_.f1;
  }

  /// Scheduled and f+1 commit times of requests [first, last) (kNotYet when
  /// not committed).
  struct Times {
    std::int64_t scheduled{0};
    std::int64_t f1_at{kNotYet};
    std::uint64_t tag{0};
    std::uint64_t stream{0};  ///< the stream (shard, slot) it committed in
  };
  [[nodiscard]] std::vector<Times> times(std::uint32_t first, std::uint32_t last) const {
    std::lock_guard<std::mutex> lk(mx_);
    std::vector<Times> out;
    for (std::uint32_t i = first; i < last && i < recs_.size(); ++i) {
      out.push_back(Times{recs_[i].scheduled, recs_[i].f1_at, recs_[i].tag, recs_[i].stream});
    }
    return out;
  }

  /// True when every request in [first, last) reached f+1.
  [[nodiscard]] bool all_committed(std::uint32_t first, std::uint32_t last) const {
    std::lock_guard<std::mutex> lk(mx_);
    for (std::uint32_t i = first; i < last && i < recs_.size(); ++i) {
      if (recs_[i].f1_at == kNotYet) return false;
    }
    return true;
  }

  /// Every registered request reached f+1, and every request any replica
  /// delivered reached all of them.
  [[nodiscard]] bool settled() const {
    std::lock_guard<std::mutex> lk(mx_);
    return totals_.f1 == recs_.size() && totals_.all == totals_.delivered_any;
  }

  [[nodiscard]] std::uint32_t n() const noexcept { return n_; }

 private:
  struct Rec {
    std::int64_t scheduled;
    std::int64_t f1_at;
    std::uint64_t tag;
    std::uint64_t stream;
    std::uint32_t bytes;
    std::uint32_t observers;  ///< bit per observer that delivered it
    std::uint32_t replicas;   ///< bit per distinct replica that delivered it
  };

  void deliver_frame(std::uint32_t observer, std::uint64_t stream,
                     std::span<const std::uint8_t> frame, std::int64_t now_ns) {
    const auto tag = tbft::workload::parse_request_tag(frame);
    const auto it = tag ? index_.find(*tag) : index_.end();
    if (it == index_.end() || observer >= 32) {
      ++totals_.foreign;
      return;
    }
    Rec& r = recs_[it->second];
    if (frame.size() != r.bytes) {
      ++totals_.foreign;
      return;
    }
    const auto expect = tbft::workload::encode_request(tbft::workload::tag_client(*tag),
                                                       tbft::workload::tag_seq(*tag), r.bytes);
    if (!std::equal(expect.begin(), expect.end(), frame.begin())) {
      ++totals_.foreign;
      return;
    }
    const std::uint32_t shard = tbft::shard::stream_shard(stream);
    if (router_.shards() > 1 && router_.shard_of(*tag) != shard) ++totals_.misrouted;
    const std::uint32_t obit = 1u << observer;
    if ((r.observers & obit) != 0) {
      ++totals_.duplicates;
      return;
    }
    if (r.observers == 0) {
      ++totals_.delivered_any;
      r.stream = stream;
    }
    r.observers |= obit;
    const std::uint32_t before = static_cast<std::uint32_t>(std::popcount(r.replicas));
    r.replicas |= 1u << observer_replica_[observer];
    const std::uint32_t after = static_cast<std::uint32_t>(std::popcount(r.replicas));
    if (after == before) return;
    if (after == f_ + 1) {
      r.f1_at = now_ns;
      ++totals_.f1;
      if (shard < shard_f1_.size()) ++shard_f1_[shard];
      if (f1_listener_) f1_listener_(*tag);
    }
    if (after == n_) ++totals_.all;
  }

  const std::uint32_t n_;
  const std::uint32_t f_;
  const tbft::shard::ShardRouter router_;
  mutable std::mutex mx_;
  std::function<void(std::uint64_t)> f1_listener_;
  std::deque<Rec> recs_;                         // guarded by mx_
  std::unordered_map<std::uint64_t, std::uint32_t> index_;  // tag -> recs_ index; guarded
  std::vector<std::uint32_t> observer_replica_;  // guarded by mx_
  std::vector<std::uint64_t> shard_f1_;          // guarded by mx_
  Totals totals_;                                // guarded by mx_
};

}  // namespace perfbench
