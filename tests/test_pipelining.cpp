// Slot pipelining + adaptive batching (DESIGN_PERF.md "Slot pipelining &
// adaptive batching"): the two regressions the feature's riskiest seams
// need pinned.
//
//  - Forwarding under load: single-hop submission relay used to be disabled
//    while the chain was busy over a double-commit race between the origin's
//    fallback copy and the relayed copy. It is re-enabled behind the
//    commit-index + pending-candidate probes in build_batch plus the
//    delivery-layer dedup filter, so a loaded run with foreign-leader
//    submissions must both actually forward AND stay exactly-once.
//  - Pipelined leader crash: with a deep pipeline, a crashing leader takes a
//    whole suffix of proposed-but-unfinalized led slots down with it. The
//    chaos churn path must view-change across the in-flight stripe,
//    re-anchor the suffix, and drain with no double commits and no lost
//    admitted requests.

#include <gtest/gtest.h>

#include <filesystem>

#include "chaos/engine.hpp"
#include "chaos/scenario.hpp"
#include "workload/scenarios.hpp"

namespace tbft::test {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() / ("tbft_pipelining_" + name)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

TEST(Pipelining, ForwardingUnderLoadStaysExactlyOnce) {
  // Sustained open-loop load onto every replica: most submissions land on a
  // node that does not lead the proposal frontier, so the chain is busy the
  // whole run and every relay exercises the forwarding-under-load path.
  workload::ScenarioOptions opts;
  opts.preset = workload::Preset::kSteadyState;
  opts.cluster.seed(31);
  opts.load_duration = 300 * sim::kMillisecond;
  opts.rate_per_sec = 1500;
  opts.clients = 2;

  workload::WorkloadRig rig = workload::make_rig(opts);
  rig.sim().start();
  const auto drained = [&] {
    return rig.sim().now() >= opts.load_duration && rig.tracker->admitted() > 0 &&
           rig.tracker->all_admitted_committed();
  };
  rig.sim().run_until_pred(drained, opts.drain_deadline);
  rig.sim().run_until(rig.sim().now() + 2 * rig.sim().network().config().delta_bound);

  // Forwarding fired under load (not just on an idle-resume edge)...
  EXPECT_GT(rig.sim().metrics().counter("multishot.forward.sent").value(), 0u);
  // ...and the accounting contract held anyway.
  const auto report = rig.tracker->report(rig.sim().now());
  EXPECT_GT(report.committed, 100u);
  EXPECT_TRUE(report.exactly_once())
      << "duplicates=" << report.duplicates << " foreign=" << report.foreign;
  EXPECT_TRUE(rig.tracker->all_admitted_committed());
  EXPECT_TRUE(rig.chains_consistent());
}

TEST(Pipelining, LeaderCrashMidPipelineReanchorsAndDrains) {
  // A hand-built plan (not drawn from a seed): depth-8 stripes on a 4-node
  // LAN, and the node leading the first stripe is crashed in the middle of
  // the load window -- mid-pipeline, with led slots proposed but not
  // finalized -- then restarted through the storage recovery path.
  chaos::ScenarioPlan plan;
  plan.seed = 4242;
  plan.n = 4;
  plan.f = 1;
  plan.wan = chaos::WanShape::kLan;
  sim::LinkProfile link;
  link.latency = sim::kMillisecond;
  plan.topology = sim::WanTopology::uniform(plan.n, link);
  plan.delta_bound = 2 * plan.topology.max_latency_plus_jitter() + 5 * sim::kMillisecond;
  plan.load = chaos::LoadShape::kOpenSteady;
  plan.clients = 2;
  plan.rate_per_sec = 1000.0;
  plan.load_duration = 400 * sim::kMillisecond;
  const sim::SimTime view_timeout = 9 * plan.delta_bound;
  plan.drain_deadline = plan.load_duration + 100 * view_timeout + 60 * sim::kSecond;
  plan.client_retry_timeout = 4 * view_timeout;
  plan.roles.assign(plan.n, chaos::ByzRole::kHonest);
  plan.pipeline_depth = 8;
  plan.adaptive_batch_txs = 128;
  // Stripe 1 (slots 1..8) is led by node (ceil(1/8) + 0) % 4 = 1 at view 0;
  // kill it while its stripe is in flight, restart before the drain phase.
  plan.churn.push_back(chaos::ChurnEvent{1, 100 * sim::kMillisecond,
                                         100 * sim::kMillisecond + 2 * view_timeout});

  TempDir dir("leader_crash");
  const chaos::ChaosVerdict v = chaos::run_plan(plan, dir.path);
  EXPECT_TRUE(v.ok()) << v.failure();
  EXPECT_EQ(v.crashes, 1u);
  EXPECT_EQ(v.restarts, 1u);
  EXPECT_EQ(v.report.duplicates, 0u);
  EXPECT_GT(v.report.committed, 100u);
  EXPECT_TRUE(v.drained);
}

}  // namespace
}  // namespace tbft::test
