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
//
// And the latency contract of depth > 1: no request pays for pipelining.
// Fresh proposals run at most MultishotNode::kRunAheadLead slots past the
// notarization frontier, and submissions relay to the leader that proposes
// after the relay lands, so every depth commits as fast as depth 1.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <vector>

#include "chaos/engine.hpp"
#include "chaos/scenario.hpp"
#include "sim/runtime.hpp"
#include "tetrabft.hpp"
#include "workload/request.hpp"
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

// --- Depth costs no delays ---------------------------------------------------

constexpr sim::SimTime kDelta = sim::kMillisecond;  // mean actual delay
constexpr sim::SimTime kDeltaMax = kDelta * 11 / 10;  // largest delay drawn
constexpr sim::SimTime kWarmup = 50 * sim::kMillisecond;
constexpr sim::SimTime kLoad = 300 * sim::kMillisecond;

/// One request: when it was submitted, when the (f+1)-th replica delivered
/// it, and the slot that carried it.
struct Request {
  sim::SimTime submitted{0};
  sim::SimTime f1_at{-1};
  std::uint32_t deliveries{0};
  Slot slot{0};
};

/// n = 4 bare replicas on a simulated network with delta uniform in
/// [0.9, 1.1] ms and Delta = 10 ms; requests are submitted at a fixed rate,
/// round-robin over the replicas, and timed until f+1 replicas deliver.
class RoundRobinRun final : public runtime::CommitSink {
 public:
  RoundRobinRun(std::uint32_t depth, double rate_per_sec) : rate_(rate_per_sec) {
    ClusterBuilder b;
    b.nodes(4).delta_bound(10 * sim::kMillisecond).pipelining(depth);
    if (depth > 1) b.adaptive_batching(16 * 64);
    cfg_ = b.node_config();
    sim::SimConfig sc;
    sc.seed = 17 + depth;
    sc.net.delta_bound = cfg_.delta_bound;
    sc.net.model = sim::DelayModel::Uniform;
    sc.net.delta_min = kDelta * 9 / 10;
    sc.net.delta_actual = kDelta * 11 / 10;
    sc.keep_message_trace = false;
    sim_ = std::make_unique<sim::Simulation>(sc);
    for (NodeId i = 0; i < cfg_.n; ++i) {
      auto node = std::make_unique<multishot::MultishotNode>(cfg_);
      node->set_record_timeline(true);
      nodes_.push_back(node.get());
      sim_->add_node(std::move(node));
    }
    sim_->add_commit_sink(*this);
  }

  void on_commit(const runtime::Commit& c) override {
    for (const std::uint64_t tag : workload::extract_request_tags(c.payload)) {
      Request& r = requests_.at(workload::tag_seq(tag));
      r.slot = c.stream;
      if (++r.deliveries == cfg_.f + 1) r.f1_at = c.at;
    }
  }

  /// Submit for kLoad after kWarmup, then drain. `pick` chooses the replica
  /// for request k (round-robin by default). Returns false if some request
  /// never reached f+1 deliveries.
  template <class Pick>
  bool run(Pick pick) {
    sim_->start();
    const auto period = static_cast<sim::SimTime>(static_cast<double>(sim::kSecond) / rate_);
    const auto sample = [this] {
      for (const auto* node : nodes_) max_run_ahead_ = std::max(max_run_ahead_, node->run_ahead());
      return false;
    };
    for (sim::SimTime t = kWarmup; t < kWarmup + kLoad; t += period) {
      sim_->run_until_pred(sample, t);
      sim_->run_until(t);  // the clock reaches t even when no event is due
      const auto seq = static_cast<std::uint32_t>(requests_.size());
      const NodeId to = pick(seq);
      requests_.push_back({sim_->now()});
      EXPECT_TRUE(nodes_[to]->submit_tx(workload::encode_request(0, seq, 64)));
    }
    const auto drained = [&] {
      sample();
      return std::all_of(requests_.begin(), requests_.end(),
                         [](const Request& r) { return r.f1_at >= 0; });
    };
    return sim_->run_until_pred(drained, sim_->now() + 2 * sim::kSecond);
  }
  bool run() {
    return run([this](std::uint32_t seq) { return static_cast<NodeId>(seq % cfg_.n); });
  }

  /// f+1 latencies in units of delta.
  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> out;
    for (const Request& r : requests_) {
      out.push_back(static_cast<double>(r.f1_at - r.submitted) / static_cast<double>(kDelta));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// When the block that carried request `r` was proposed: its proposer's
  /// own broadcast loops back at send time, so the proposer's first-receipt
  /// timeline holds the proposal time.
  [[nodiscard]] sim::SimTime proposed_at(const Request& r) const {
    const multishot::Block* b = nullptr;
    for (const auto* node : nodes_) {
      if (b == nullptr) b = node->block_at(r.slot);
    }
    EXPECT_NE(b, nullptr);
    return b == nullptr ? -1 : nodes_[b->proposer]->first_proposal_at().at(r.slot);
  }

  /// The replica leading the first slot no proposal has been made for yet:
  /// the one that proposes next.
  [[nodiscard]] NodeId next_proposer() const {
    Slot top = 0;
    for (const auto* node : nodes_) {
      if (!node->first_proposal_at().empty()) {
        top = std::max(top, node->first_proposal_at().rbegin()->first);
      }
    }
    return cfg_.leader_of(top + 1, 0);
  }

  [[nodiscard]] const std::vector<Request>& requests() const { return requests_; }
  [[nodiscard]] Slot max_run_ahead() const { return max_run_ahead_; }
  [[nodiscard]] bool consistent() const { return multishot::chains_prefix_consistent(nodes_); }
  [[nodiscard]] std::uint32_t n() const { return cfg_.n; }

 private:
  double rate_;
  multishot::MultishotConfig cfg_;
  std::unique_ptr<sim::Simulation> sim_;
  std::vector<multishot::MultishotNode*> nodes_;
  std::vector<Request> requests_;
  Slot max_run_ahead_{0};
};

double mean_of(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}
double p99_of(const std::vector<double>& sorted) {
  return sorted[static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(sorted.size()))) - 1];
}

TEST(Pipelining, DepthCostsNoDelaysUnderLoad) {
  for (const double rate : {1000.0, 4000.0}) {
    double depth1_mean = 0;
    for (const std::uint32_t depth : {1u, 2u, 4u, 8u}) {
      RoundRobinRun run(depth, rate);
      ASSERT_TRUE(run.run()) << "depth " << depth << " at " << rate << " req/s did not drain";
      EXPECT_TRUE(run.consistent());
      const auto lat = run.latencies();
      const double mean = mean_of(lat);
      const double p99 = p99_of(lat);
      if (depth == 1) depth1_mean = mean;
      std::printf("  depth %u at %5.0f req/s: mean %.2f delta, p99 %.2f delta, run-ahead %llu\n",
                  depth, rate, mean, p99, static_cast<unsigned long long>(run.max_run_ahead()));
      EXPECT_LE(mean, depth1_mean + 1.0) << "depth " << depth << " at " << rate << " req/s";
      EXPECT_LE(p99, 10.0) << "depth " << depth << " at " << rate << " req/s";
      if (depth > 1) {
        EXPECT_LE(run.max_run_ahead(), multishot::MultishotNode::kRunAheadLead)
            << "depth " << depth << " at " << rate << " req/s";
      }
    }
  }
}

TEST(Pipelining, DepthCostsNoDelaysAtLightLoad) {
  // Streams from one request every 5 ms to isolated requests 40 ms apart:
  // the chain parks and resumes between requests, and each depth's median
  // must stay within one delay of depth 1's. (A stream's last request can
  // still meet the idle-edge view change at every depth; medians ignore
  // that known edge.)
  for (const double gap_ms : {5.0, 7.0, 12.0, 20.0, 40.0}) {
    double depth1_p50 = 0;
    for (const std::uint32_t depth : {1u, 2u, 4u, 8u}) {
      RoundRobinRun run(depth, 1000.0 / gap_ms);
      ASSERT_TRUE(run.run()) << "depth " << depth << " at " << gap_ms << " ms did not drain";
      const auto lat = run.latencies();
      const double p50 = lat[lat.size() / 2];
      if (depth == 1) depth1_p50 = p50;
      std::printf("  depth %u, one request per %2.0f ms: p50 %.2f delta\n", depth, gap_ms, p50);
      EXPECT_LE(p50, depth1_p50 + 1.0) << "depth " << depth << " at " << gap_ms << " ms";
    }
  }
}

TEST(Pipelining, ForwardReachesTheNextProposer) {
  // Every request goes to a replica that does not propose next, so each one
  // must be relayed; the relay has to reach a leader that still proposes
  // after it lands. One delay for the relay, then at most two proposal
  // steps: within three delays, each counted at the largest drawn delay.
  RoundRobinRun run(4, 4000.0);
  std::uint32_t rotate = 0;
  ASSERT_TRUE(run.run([&](std::uint32_t) {
    const NodeId next = run.next_proposer();
    NodeId to = static_cast<NodeId>(rotate++ % run.n());
    if (to == next) to = static_cast<NodeId>((to + 1) % run.n());
    return to;
  }));
  sim::SimTime worst = 0;
  for (const Request& r : run.requests()) worst = std::max(worst, run.proposed_at(r) - r.submitted);
  std::printf("  worst submit-to-proposal wait %.2f delta\n",
              static_cast<double>(worst) / static_cast<double>(kDelta));
  EXPECT_LE(worst, 3 * kDeltaMax);
}

}  // namespace
}  // namespace tbft::test
