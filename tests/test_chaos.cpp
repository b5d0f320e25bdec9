// Chaos layer (src/chaos/): plan drawing is a pure function of the seed, the
// fault budget holds on every draw, and engine runs are byte-deterministic --
// the properties the `fuzz_driver --seed=N` reproducer contract rests on.

#include "chaos/engine.hpp"
#include "chaos/fuzzer.hpp"
#include "chaos/scenario.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

namespace tbft::chaos {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() / ("tbft_chaos_" + name)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

TEST(ChaosScenario, DrawPlanIsPure) {
  for (std::uint64_t seed : {1ULL, 42ULL, 297ULL, 99991ULL}) {
    const ScenarioPlan a = draw_plan(seed);
    const ScenarioPlan b = draw_plan(seed);
    EXPECT_EQ(a.describe(), b.describe());
    EXPECT_EQ(a.roles, b.roles);
    ASSERT_EQ(a.churn.size(), b.churn.size());
    for (std::size_t i = 0; i < a.churn.size(); ++i) {
      EXPECT_EQ(a.churn[i].node, b.churn[i].node);
      EXPECT_EQ(a.churn[i].down_at, b.churn[i].down_at);
      EXPECT_EQ(a.churn[i].up_at, b.churn[i].up_at);
    }
    // The topology draw is part of the same stream: spot-check a link.
    ASSERT_EQ(a.topology.n(), b.topology.n());
    EXPECT_EQ(a.topology.link(0, 1).latency, b.topology.link(0, 1).latency);
    EXPECT_EQ(a.topology.link(0, 1).jitter, b.topology.link(0, 1).jitter);
  }
}

TEST(ChaosScenario, SeedsCoverTheScheduleSpace) {
  std::set<WanShape> wans;
  std::set<LoadShape> loads;
  std::set<std::uint32_t> shard_counts;
  bool saw_byz = false;
  bool saw_churn = false;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const ScenarioPlan p = draw_plan(seed);
    wans.insert(p.wan);
    loads.insert(p.load);
    shard_counts.insert(p.shards);
    saw_byz = saw_byz || p.byzantine_count() > 0;
    saw_churn = saw_churn || !p.churn.empty();
  }
  EXPECT_EQ(wans.size(), 4u);
  EXPECT_EQ(loads.size(), 3u);
  EXPECT_EQ(shard_counts, (std::set<std::uint32_t>{1, 2, 4}));
  EXPECT_TRUE(saw_byz);
  EXPECT_TRUE(saw_churn);
}

TEST(ChaosScenario, HistoricalSeedsDrawByteIdenticalPlans) {
  // The reproducer contract across PRs: draws are only ever APPENDED to the
  // seed stream, so every historical seed keeps its schedule byte-for-byte
  // (the shards draw of this PR, like the depth/adaptive draws before it,
  // only extends the describe() line). If one of these strings changes, a
  // draw was inserted mid-stream and every logged `fuzz_driver --seed=N`
  // reproducer silently replays a different scenario.
  const std::pair<std::uint64_t, const char*> pins[] = {
      {1,
       "seed=1 n=4 f=1 wan=wan delta=123ms load=closed clients=1 dur=2221ms "
       "byz=[3:slow-loris] churn=0 depth=1 adaptive=0 shards=1"},
      {7,
       "seed=7 n=6 f=1 wan=wan delta=109ms load=open clients=1 dur=1964ms "
       "byz=[3:silent] churn=0 depth=1 adaptive=0 shards=2"},
      {42,
       "seed=42 n=6 f=1 wan=geo delta=138ms load=closed clients=1 dur=2498ms "
       "byz=[none] churn=1 depth=7 adaptive=76 shards=1"},
      {137,
       "seed=137 n=4 f=1 wan=lan delta=9ms load=open clients=2 dur=338ms "
       "byz=[3:equivocator] churn=0 depth=4 adaptive=459 shards=4"},
      {200,
       "seed=200 n=5 f=1 wan=lan delta=7ms load=open clients=2 dur=256ms "
       "byz=[0:slow-loris] churn=0 depth=1 adaptive=0 shards=1"},
  };
  for (const auto& [seed, expected] : pins) {
    EXPECT_EQ(draw_plan(seed).describe(), expected) << "seed " << seed;
  }
}

TEST(ChaosScenario, FaultBudgetHoldsOnEveryDraw) {
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const ScenarioPlan p = draw_plan(seed);
    ASSERT_EQ(p.roles.size(), p.n);
    EXPECT_GT(p.n, 3 * p.f);
    const std::uint32_t byz = p.byzantine_count();
    EXPECT_LE(byz, p.f);
    // Churn exists only with leftover budget (a down node is a fault), the
    // windows are sequential, hit honest nodes only, and heal before the
    // drain phase.
    if (!p.churn.empty()) {
      EXPECT_LT(byz, p.f);
    }
    sim::SimTime prev_up = 0;
    for (const ChurnEvent& ev : p.churn) {
      EXPECT_EQ(p.roles[ev.node], ByzRole::kHonest);
      EXPECT_GE(ev.down_at, prev_up);
      EXPECT_GT(ev.up_at, ev.down_at);
      EXPECT_LT(ev.up_at, p.load_duration + 2 * 9 * p.delta_bound);
      prev_up = ev.up_at;
    }
  }
}

TEST(ChaosEngine, SameSeedSameTrace) {
  // Two full engine runs of one seed must agree byte-for-byte: same trace
  // digest, same workload accounting. This is the reproducer contract.
  const ScenarioPlan plan = draw_plan(7);
  TempDir a("det_a");
  TempDir b("det_b");
  const ChaosVerdict va = run_plan(plan, a.path);
  const ChaosVerdict vb = run_plan(plan, b.path);
  EXPECT_TRUE(va.ok()) << va.failure();
  EXPECT_EQ(va.trace_digest, vb.trace_digest);
  EXPECT_EQ(va.elapsed, vb.elapsed);
  EXPECT_EQ(va.max_finalized, vb.max_finalized);
  EXPECT_EQ(va.report.committed, vb.report.committed);
  EXPECT_EQ(va.report.admitted, vb.report.admitted);
  EXPECT_EQ(va.report.retried, vb.report.retried);
}

TEST(ChaosVerdict, RoutingFaultsHaveTheirOwnVerdict) {
  // A routing bug is not a chain divergence: each shard's chain can be
  // prefix-consistent while a request commits off its home shard or on two
  // shards. The verdict names each fault for what it is.
  ChaosVerdict v;
  v.chains_consistent = true;
  v.drained = true;
  v.progressed = true;
  ASSERT_TRUE(v.ok());
  v.report.misrouted = 1;
  EXPECT_FALSE(v.report.exactly_once());
  EXPECT_FALSE(v.safe());
  EXPECT_EQ(v.failure(), "misrouted-commit");
  v.report.misrouted = 0;
  v.report.cross_shard = 2;
  EXPECT_FALSE(v.safe());
  EXPECT_EQ(v.failure(), "cross-shard-commit");
}

TEST(ChaosEngine, FailingVerdictDumpsReplicaState) {
  // A drain deadline inside the load window cannot be met: the verdict
  // fails, and the reproducer's stderr carries every live replica's state.
  ScenarioPlan plan = draw_plan(7);
  plan.drain_deadline = plan.load_duration / 2;
  TempDir dir("dump");
  testing::internal::CaptureStderr();
  const ChaosVerdict v = run_plan(plan, dir.path);
  const std::string dump = testing::internal::GetCapturedStderr();
  EXPECT_EQ(v.failure(), "undrained");
  EXPECT_NE(dump.find("node 0 shard 0: finalized="), std::string::npos) << dump;
  EXPECT_NE(dump.find("node 0 shard 1: finalized="), std::string::npos) << dump;
}

TEST(ChaosEngine, ChurnSeedRecoversAndPasses) {
  // First seed whose plan churns a replica: the run must crash, restart
  // through the storage recovery path, and still drain safely.
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s <= 200 && seed == 0; ++s) {
    if (!draw_plan(s).churn.empty()) seed = s;
  }
  ASSERT_NE(seed, 0u) << "no churn seed in the first 200";
  TempDir dir("churn");
  const ChaosVerdict v = run_plan(draw_plan(seed), dir.path);
  EXPECT_TRUE(v.ok()) << v.failure();
  EXPECT_GT(v.crashes, 0u);
  EXPECT_EQ(v.crashes, v.restarts);
}

TEST(ChaosFuzzer, FuzzOneRendersReproducer) {
  TempDir dir("fuzz_one");
  const FuzzResult r = fuzz_one(11, dir.path);
  EXPECT_TRUE(r.passed) << r.failure;
  EXPECT_EQ(r.seed, 11u);
  EXPECT_EQ(r.reproducer(), "fuzz_driver --seed=11");
  EXPECT_FALSE(r.plan.empty());
  // The per-seed scratch directory is cleaned up after a pass.
  EXPECT_TRUE(fs::is_empty(dir.path));
}

TEST(ChaosFuzzer, SmallBatchPasses) {
  TempDir dir("fuzz_batch");
  const FuzzBatchResult batch = fuzz_batch(1, 5, dir.path);
  EXPECT_EQ(batch.ran, 5u);
  EXPECT_TRUE(batch.all_passed());
  EXPECT_TRUE(batch.failures.empty());
}

}  // namespace
}  // namespace tbft::chaos
