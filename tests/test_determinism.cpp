// Determinism regression: a simulation run is a pure function of its
// configuration and seed. Two runs with identical seeds must produce
// byte-identical traces -- same message records in the same order, same
// decisions at the same times -- across the zero-copy payload path, the
// typed 4-ary event heap, and the generation-counted timer slots
// (equal-timestamp FIFO order included). Guards the event-queue/payload
// rewrite against any source of nondeterminism (iteration order, slot
// recycling, tie-breaking).

#include <gtest/gtest.h>

#include "cluster_helpers.hpp"
#include "ms_cluster_helpers.hpp"
#include "sim/adversary.hpp"
#include "tetrabft.hpp"
#include "workload/scenarios.hpp"

namespace tbft::test {
namespace {

struct TraceSnapshot {
  std::vector<sim::MessageRecord> messages;
  std::vector<sim::DecisionRecord> decisions;
  std::uint64_t digest{0};
  sim::SimTime end{0};
};

TraceSnapshot snapshot(const sim::Simulation& s) {
  // Trace accessors are non-const on Simulation; const_cast keeps the
  // helper's signature honest about not mutating the run.
  auto& sim_ref = const_cast<sim::Simulation&>(s);
  return TraceSnapshot{sim_ref.trace().messages(), sim_ref.trace().decisions(),
                       sim_ref.trace().digest(), s.now()};
}

void expect_identical(const TraceSnapshot& a, const TraceSnapshot& b) {
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.digest, b.digest);
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (std::size_t i = 0; i < a.messages.size(); ++i) {
    EXPECT_EQ(a.messages[i], b.messages[i]) << "message record " << i << " diverged";
  }
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i], b.decisions[i]) << "decision record " << i << " diverged";
  }
}

/// A good-case plus pre-GST-chaos single-shot run: stochastic drops/delays
/// before GST exercise the RNG, timer churn (view changes) exercises slot
/// recycling, and the uniform delay model exercises tie-breaking.
TraceSnapshot run_single_shot(std::uint64_t seed) {
  ClusterOptions opts;
  opts.n = 7;
  opts.f = 2;
  opts.seed = seed;
  opts.gst = 40 * sim::kMillisecond;
  opts.delay_model = sim::DelayModel::Uniform;
  opts.delta_min = 1 * sim::kMillisecond;
  opts.delta_actual = 3 * sim::kMillisecond;
  auto cluster = make_cluster(opts);
  cluster.run_until_all_decided(600 * sim::kSecond);
  cluster.sim->run_until(cluster.sim->now() + 2 * opts.delta_bound);
  return snapshot(*cluster.sim);
}

TEST(Determinism, SingleShotTracesAreByteIdenticalAcrossRuns) {
  const auto a = run_single_shot(0xC0FFEE);
  const auto b = run_single_shot(0xC0FFEE);
  ASSERT_GT(a.messages.size(), 0u);
  ASSERT_GT(a.decisions.size(), 0u);
  expect_identical(a, b);
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Sanity check that the comparison has teeth: pre-GST randomness must make
  // different seeds produce different schedules.
  const auto a = run_single_shot(1);
  const auto b = run_single_shot(2);
  EXPECT_NE(a.digest, b.digest);
}

TraceSnapshot run_multishot(std::uint64_t seed) {
  MsClusterOptions opts;
  opts.n = 4;
  opts.f = 1;
  opts.seed = seed;
  opts.max_slots = 12;
  auto cluster = make_ms_cluster(opts);
  cluster.sim->run_until(2 * sim::kSecond);
  return snapshot(*cluster.sim);
}

TEST(Determinism, MultishotTracesAreByteIdenticalAcrossRuns) {
  const auto a = run_multishot(77);
  const auto b = run_multishot(77);
  ASSERT_GT(a.messages.size(), 0u);
  expect_identical(a, b);
}

// With generators active (Poisson arrivals, closed-loop replenishment,
// batching, commit tracking), a run must still be a pure function of seed +
// config: byte-identical traces and identical WorkloadReports.

workload::ScenarioOptions loaded_opts(bool closed_loop, std::uint64_t seed) {
  workload::ScenarioOptions opts;
  opts.preset = workload::Preset::kSteadyState;
  opts.closed_loop = closed_loop;
  opts.cluster.seed(seed);
  opts.load_duration = 150 * sim::kMillisecond;
  opts.rate_per_sec = 600;
  opts.outstanding = 6;
  return opts;
}

TEST(Determinism, OpenLoopWorkloadIsDeterministic) {
  const auto a = workload::run_scenario(loaded_opts(false, 0xBEEF));
  const auto b = workload::run_scenario(loaded_opts(false, 0xBEEF));
  ASSERT_GT(a.report.committed, 0u);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_TRUE(a.report == b.report);
}

TEST(Determinism, ClosedLoopWorkloadIsDeterministic) {
  const auto a = workload::run_scenario(loaded_opts(true, 0xF00D));
  const auto b = workload::run_scenario(loaded_opts(true, 0xF00D));
  ASSERT_GT(a.report.committed, 0u);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_TRUE(a.report == b.report);
}

TEST(Determinism, WorkloadSeedsDiverge) {
  const auto a = workload::run_scenario(loaded_opts(false, 1));
  const auto b = workload::run_scenario(loaded_opts(false, 2));
  EXPECT_NE(a.trace_digest, b.trace_digest);
}

// pipeline_depth = 1 must reproduce today's runs BYTE-identically: the
// pipelining machinery (striped leader schedule, stripe chaining, adaptive
// caps) is a strict no-op at depth 1, so the whole trace -- not just the
// chain -- matches a config that never mentions pipelining.
TEST(Determinism, DepthOneIsByteIdenticalToUnpipelined) {
  const auto base = workload::run_scenario(loaded_opts(false, 0xABCD));
  auto opts = loaded_opts(false, 0xABCD);
  opts.cluster.pipelining(1);
  opts.cluster.adaptive_batching(0);
  const auto depth1 = workload::run_scenario(opts);
  ASSERT_GT(base.report.committed, 0u);
  EXPECT_EQ(base.trace_digest, depth1.trace_digest);
  EXPECT_EQ(base.elapsed, depth1.elapsed);
  EXPECT_TRUE(base.report == depth1.report);
}

// A pipelined + adaptive run is still a pure function of seed + config.
TEST(Determinism, PipelinedWorkloadIsDeterministic) {
  auto opts = loaded_opts(false, 0x9A9A);
  opts.rate_per_sec = 4000;
  opts.cluster.pipelining(4);
  opts.cluster.adaptive_batching(512);
  const auto a = workload::run_scenario(opts);
  const auto b = workload::run_scenario(opts);
  ASSERT_GT(a.report.committed, 0u);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_TRUE(a.report == b.report);
  // And the depth axis has teeth: depth 4 schedules differently than depth 1.
  auto flat = opts;
  flat.cluster.pipelining(1);
  flat.cluster.adaptive_batching(0);
  const auto c = workload::run_scenario(flat);
  EXPECT_NE(a.trace_digest, c.trace_digest);
}

// S = 1 is the unsharded system: build_sim() hosts every replica as a
// one-shard ShardMux, which passes the outer rng, timers and commit stream
// straight through. The whole trace must match a hand-built Simulation of
// bare MultishotNodes from the same config and seed, at depth 1 and 4.
TEST(Determinism, ShardOneIsByteIdenticalToUnsharded) {
  constexpr std::uint32_t kNodes = 4;
  constexpr std::uint32_t kTxs = 48;
  constexpr sim::SimTime kRun = 3 * sim::kSecond;
  const auto tx = [](std::uint32_t j) { return workload::encode_request(3, j, 32); };
  for (const std::uint32_t depth : {1u, 4u}) {
    ClusterBuilder b;
    b.nodes(kNodes)
        .seed(0x5EED)
        .delta_bound(20 * sim::kMillisecond)
        .sim_delta_actual(1 * sim::kMillisecond)
        .batching(4, 4096, 2 * sim::kMillisecond)
        .pipelining(depth);

    auto muxed = b.build_sim();
    for (std::uint32_t j = 0; j < kTxs; ++j) ASSERT_TRUE(muxed->submit(j % kNodes, tx(j)));
    muxed->start();
    muxed->simulation().run_until(kRun);

    sim::SimConfig sc;
    sc.seed = 0x5EED;
    sc.net.delta_bound = 20 * sim::kMillisecond;
    sc.net.delta_actual = 1 * sim::kMillisecond;
    sc.net.delta_min = 1 * sim::kMillisecond;
    sim::Simulation bare(sc);
    std::vector<multishot::MultishotNode*> nodes;
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      auto node = std::make_unique<multishot::MultishotNode>(b.node_config());
      nodes.push_back(node.get());
      bare.add_node(std::move(node));
    }
    for (std::uint32_t j = 0; j < kTxs; ++j) ASSERT_TRUE(nodes[j % kNodes]->submit_tx(tx(j)));
    bare.start();
    bare.run_until(kRun);

    EXPECT_GE(nodes[0]->finalized_count(), kTxs / 4) << "depth " << depth;
    const TraceSnapshot a = snapshot(muxed->simulation());
    const TraceSnapshot c = snapshot(bare);
    ASSERT_GT(a.decisions.size(), 0u);
    expect_identical(a, c);
  }
}

}  // namespace
}  // namespace tbft::test
