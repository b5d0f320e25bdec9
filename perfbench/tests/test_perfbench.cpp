// Unit tests of the benchmark's own measurement code: the percentile
// helper, the capacity search, and f+1 commit counting.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "capacity.hpp"
#include "common/rng.hpp"
#include "common/serde.hpp"
#include "ledger.hpp"
#include "stats.hpp"
#include "workload/request.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Quantile, NearestRank) {
  auto v = one_to(100);
  EXPECT_EQ(quantile(v, 0.5).value, 50);
  EXPECT_EQ(quantile(v, 0.99).value, 99);
  EXPECT_EQ(quantile(v, 1.0).value, 100);
  EXPECT_EQ(median(one_to(5)), 3);
  EXPECT_EQ(median(one_to(4)), 2.5);
  EXPECT_EQ(median({}), 0);
  std::vector<double> empty;
  EXPECT_FALSE(quantile(empty, 0.5).supported());
  EXPECT_EQ(quantile(empty, 0.5).samples, 0u);
}

TEST(Quantile, InterquartileMean) {
  EXPECT_EQ(iq_mean({}), 0);
  EXPECT_EQ(iq_mean({5}), 5);
  EXPECT_EQ(iq_mean({1, 2, 3, 100}), 2.5);  // drops one from each end
  // Two clusters: the median jumps between them, the IQ mean moves by steps.
  EXPECT_EQ(iq_mean({454, 454, 454, 454, 604, 604, 604, 604}), 529);
  EXPECT_EQ(iq_mean({454, 454, 454, 454, 454, 604, 604, 604}), 491.5);
}

TEST(Quantile, TailNeedsTenSamplesBeyond) {
  auto exact = one_to(1000);
  const Quantile q = quantile(exact, 0.99);
  EXPECT_EQ(q.value, 990);
  EXPECT_EQ(q.beyond, 10u);
  EXPECT_TRUE(q.supported());

  auto short_by_one = one_to(999);
  const Quantile s = quantile(short_by_one, 0.99);
  EXPECT_EQ(s.beyond, 9u);
  EXPECT_FALSE(s.supported());

  // The smallest supported count for each tail: n - ceil(p n) >= 10.
  for (const auto& [p, n] : {std::pair{0.5, 20}, {0.9, 100}, {0.99, 1000}, {0.999, 10000}}) {
    auto at = one_to(n);
    auto below = one_to(n - 1);
    EXPECT_TRUE(quantile(at, p).supported()) << p;
    EXPECT_FALSE(quantile(below, p).supported()) << p;
  }
}

TEST(Quantile, InfiniteSamplesRankLast) {
  std::vector<double> v(1000, 1.0);
  for (int i = 0; i < 20; ++i) v[static_cast<std::size_t>(i)] = INFINITY;
  EXPECT_TRUE(std::isinf(quantile(v, 0.99).value));
  EXPECT_EQ(quantile(v, 0.5).value, 1.0);
}

bool passed(const CapacityResult& r, double rate) {
  for (const auto& [x, ok] : r.history) {
    if (x == rate && ok) return true;
  }
  return false;
}

TEST(CapacitySearch, MonotoneCurve) {
  // p99 = 1 ms / (1 - r/K): passes the 20 ms limit below 0.95 K.
  const double K = 80000;
  CapacitySearch s;
  s.start = 10000;
  s.max_trials = 20;
  const auto r = find_capacity(s, [&](double rate) {
    return rate < K && 1.0 / (1.0 - rate / K) <= 20.0;
  });
  EXPECT_TRUE(r.resolved);
  EXPECT_LE(r.capacity, 0.95 * K);
  EXPECT_GE(r.capacity, 0.95 * K / (1 + s.resolution));
  EXPECT_TRUE(passed(r, r.capacity));
}

TEST(CapacitySearch, SharpKneeFromAbove) {
  const double knee = 31000;
  CapacitySearch s;
  s.start = 200000;  // first trial fails: the search ramps down
  s.floor = 1000;
  s.max_trials = 20;
  const auto r = find_capacity(s, [&](double rate) { return rate <= knee; });
  EXPECT_TRUE(r.resolved);
  EXPECT_LE(r.capacity, knee);
  EXPECT_GE(r.capacity, knee / (1 + s.resolution));
  EXPECT_GT(r.first_fail, knee);
}

TEST(CapacitySearch, NoisyKneeStaysInTheTransition) {
  // Always passes below 0.9 K, never above 1.1 K, a coin flip between.
  const double K = 50000;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    tbft::Rng rng(seed);
    CapacitySearch s;
    s.start = 5000;
    s.max_trials = 20;
    const auto r = find_capacity(s, [&](double rate) {
      if (rate < 0.9 * K) return true;
      if (rate > 1.1 * K) return false;
      return rng.bernoulli(0.5);
    });
    EXPECT_TRUE(passed(r, r.capacity)) << seed;
    EXPECT_GE(r.capacity, 0.9 * K / (1 + s.resolution)) << seed;
    EXPECT_LE(r.capacity, 1.1 * K) << seed;
  }
}

TEST(CapacitySearch, BoundsAreReported) {
  CapacitySearch s;
  s.start = 1000;
  s.floor = 500;
  s.ceiling = 4000;
  const auto none = find_capacity(s, [](double) { return false; });
  EXPECT_EQ(none.capacity, 0);
  EXPECT_FALSE(none.resolved);
  const auto all = find_capacity(s, [](double) { return true; });
  EXPECT_EQ(all.capacity, 4000);
  EXPECT_FALSE(all.resolved);
  s.max_trials = 2;
  const auto cut = find_capacity(s, [](double rate) { return rate < 1400; });
  EXPECT_EQ(cut.trials, 2);
  EXPECT_FALSE(cut.resolved);
}

/// A block payload (view nonce + length-prefixed frames), as replicas
/// publish it.
std::vector<std::uint8_t> block(const std::vector<std::vector<std::uint8_t>>& frames) {
  tbft::serde::Writer w;
  w.varint(7);
  for (const auto& f : frames) w.bytes(f);
  return w.take();
}

std::vector<std::uint8_t> req(std::uint32_t seq) {
  return tbft::workload::encode_request(1, seq, 64);
}

TEST(CommitLedger, FPlusOneDistinctReplicasOutOfOrderAndDuplicated) {
  CommitLedger ledger(4, 1, 1);
  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    ledger.add(tbft::workload::request_tag(1, seq), 100, 64);
  }
  // Replica 3 commits request 2 first (out of order), then again.
  ledger.deliver(3, 9, block({req(2)}), 1000);
  ledger.deliver(3, 9, block({req(2)}), 1100);
  auto t = ledger.totals();
  EXPECT_EQ(t.duplicates, 1u);
  EXPECT_EQ(t.f1, 0u);  // one distinct replica is not f+1
  // A second replica makes it f+1; its time is recorded.
  ledger.deliver(0, 9, block({req(2), req(0)}), 2000);
  t = ledger.totals();
  EXPECT_EQ(t.f1, 1u);
  EXPECT_EQ(ledger.times(2, 3).front().f1_at, 2000);
  EXPECT_EQ(ledger.times(2, 3).front().stream, 9u);
  EXPECT_EQ(ledger.times(0, 1).front().f1_at, kNotYet);
  // Later replicas do not move the f+1 time.
  ledger.deliver(1, 9, block({req(2)}), 3000);
  EXPECT_EQ(ledger.times(2, 3).front().f1_at, 2000);
  EXPECT_FALSE(ledger.all_committed(0, 3));
  EXPECT_FALSE(ledger.settled());
}

TEST(CommitLedger, RestartedIncarnationIsTheSameReplica) {
  CommitLedger ledger(4, 1, 1);
  ledger.add(tbft::workload::request_tag(1, 0), 0, 64);
  ledger.deliver(1, 1, block({req(0)}), 10);
  const std::uint32_t reborn = ledger.add_observer(1);
  ledger.deliver(reborn, 1, block({req(0)}), 20);  // not a duplicate, not a second replica
  auto t = ledger.totals();
  EXPECT_EQ(t.duplicates, 0u);
  EXPECT_EQ(t.f1, 0u);
  ledger.deliver(2, 1, block({req(0)}), 30);
  ledger.deliver(0, 1, block({req(0)}), 40);
  ledger.deliver(3, 1, block({req(0)}), 50);
  t = ledger.totals();
  EXPECT_EQ(t.f1, 1u);
  EXPECT_EQ(t.all, 1u);
  EXPECT_EQ(ledger.times(0, 1).front().f1_at, 30);
  EXPECT_TRUE(ledger.settled());
}

TEST(CommitLedger, ForeignBytesAreCounted) {
  CommitLedger ledger(4, 1, 1);
  ledger.add(tbft::workload::request_tag(1, 0), 0, 64);
  auto tampered = req(0);
  tampered.back() ^= 1;
  ledger.deliver(0, 1, block({tampered}), 10);                        // altered filler
  ledger.deliver(0, 1, block({req(5)}), 10);                          // never registered
  ledger.deliver(0, 1, block({{0x01, 0x02, 0x03}}), 10);              // not a request
  ledger.deliver(0, 1, block({tbft::workload::encode_request(1, 0, 80)}), 10);  // wrong size
  EXPECT_EQ(ledger.totals().foreign, 4u);
  EXPECT_EQ(ledger.totals().delivered_any, 0u);
}

TEST(CommitLedger, MisroutedShardIsCounted) {
  CommitLedger ledger(4, 1, 4);
  const std::uint64_t tag = tbft::workload::request_tag(1, 0);
  ledger.add(tag, 0, 64);
  const tbft::shard::ShardRouter router(4);
  const std::uint32_t wrong = (router.shard_of(tag) + 1) % 4;
  ledger.deliver(0, tbft::shard::shard_stream(wrong, 3), block({req(0)}), 10);
  ledger.deliver(1, tbft::shard::shard_stream(router.shard_of(tag), 3), block({req(0)}), 10);
  EXPECT_EQ(ledger.totals().misrouted, 1u);
}

}  // namespace
}  // namespace perfbench
