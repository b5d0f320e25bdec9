// Workload engine tests: request tagging, open-/closed-loop generators on
// the client-actor hook, leader batching, mempool backpressure, and the
// exactly-once commit accounting of the WorkloadTracker.

#include <gtest/gtest.h>

#include "common/serde.hpp"
#include "ms_cluster_helpers.hpp"
#include "workload/request.hpp"
#include "workload/scenarios.hpp"

namespace tbft::workload {
namespace {

TEST(Request, TagRoundtrip) {
  const auto bytes = encode_request(7, 42, 64);
  EXPECT_EQ(bytes.size(), 64u);
  const auto tag = parse_request_tag(bytes);
  ASSERT_TRUE(tag.has_value());
  EXPECT_EQ(*tag, request_tag(7, 42));
  EXPECT_EQ(tag_client(*tag), 7u);
  EXPECT_EQ(tag_seq(*tag), 42u);
}

TEST(Request, EncodingIsDeterministic) {
  EXPECT_EQ(encode_request(3, 9, 128), encode_request(3, 9, 128));
  EXPECT_NE(encode_request(3, 9, 128), encode_request(3, 10, 128));
}

TEST(Request, GarbageIsNotARequest) {
  EXPECT_FALSE(parse_request_tag(std::vector<std::uint8_t>{}).has_value());
  EXPECT_FALSE(parse_request_tag(std::vector<std::uint8_t>{1, 2, 3}).has_value());
  auto almost = encode_request(1, 1, 16);
  almost[0] ^= 0xFF;  // wrong magic
  EXPECT_FALSE(parse_request_tag(almost).has_value());
}

TEST(Request, FillerPaddingYieldsNoFrames) {
  // A filler block (varint nonce + zero padding) must parse as zero frames:
  // zero-length "frames" alias nothing in the mempool.
  std::vector<std::uint8_t> filler(8, 0);
  EXPECT_TRUE(multishot::payload_frames(filler).empty());
  serde::Writer w;
  w.varint(3);
  w.bytes(encode_request(1, 1, 16));
  auto payload = w.take();
  payload.resize(payload.size() + 5, 0);
  EXPECT_EQ(multishot::payload_frames(payload).size(), 1u);
}

TEST(Request, ExtractTagsWalksBatchedPayload) {
  serde::Writer w;
  w.varint(0);  // view nonce
  w.bytes(encode_request(1, 100, 32));
  w.bytes(std::vector<std::uint8_t>{0xAA, 0xBB});  // non-request transaction
  w.bytes(encode_request(2, 5, 16));
  auto payload = w.take();
  payload.resize(payload.size() + 6, 0);  // filler padding survives parsing
  const auto tags = extract_request_tags(payload);
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags[0], request_tag(1, 100));
  EXPECT_EQ(tags[1], request_tag(2, 5));
}

TEST(Workload, OpenLoopSteadyStateCommitsEverythingExactlyOnce) {
  ScenarioOptions opts;
  opts.preset = Preset::kSteadyState;
  opts.cluster.seed(11);
  opts.load_duration = 200 * sim::kMillisecond;
  opts.rate_per_sec = 500;
  const auto res = run_scenario(opts);
  EXPECT_GT(res.report.submitted, 50u);
  EXPECT_EQ(res.report.rejected, 0u);
  EXPECT_TRUE(res.all_admitted_committed);
  EXPECT_TRUE(res.report.exactly_once());
  EXPECT_TRUE(res.chains_consistent);
  // End-to-end latency is at least the 5-hop finalization path.
  EXPECT_GT(res.report.latency_p50_ms, 0.0);
  EXPECT_GE(res.report.latency_max_ms, res.report.latency_p50_ms);
  EXPECT_GT(res.report.committed_tx_per_sec, 0.0);
  // Leader batching actually batched: some block carried > 1 transaction.
  EXPECT_GT(res.report.batch_txs_max, 1.0);
}

TEST(Workload, ClosedLoopKeepsOutstandingBoundedAndDrains) {
  ScenarioOptions opts;
  opts.preset = Preset::kSteadyState;
  opts.closed_loop = true;
  opts.clients = 3;
  opts.outstanding = 8;
  opts.cluster.seed(12);
  opts.load_duration = 200 * sim::kMillisecond;
  const auto res = run_scenario(opts);
  EXPECT_TRUE(res.all_admitted_committed);
  EXPECT_TRUE(res.report.exactly_once());
  EXPECT_EQ(res.report.rejected, 0u);
  EXPECT_GT(res.report.committed, 3u * 8u);
  // Closed loop: submissions never exceed commits + the k in flight per
  // client (every request beyond the initial window is funded by a commit).
  EXPECT_LE(res.report.submitted, res.report.committed + 3u * 8u);
}

TEST(Workload, BurstPresetCommitsEverything) {
  ScenarioOptions opts;
  opts.preset = Preset::kBurst;
  opts.cluster.seed(13);
  opts.load_duration = 200 * sim::kMillisecond;
  opts.rate_per_sec = 400;
  const auto res = run_scenario(opts);
  EXPECT_TRUE(res.all_admitted_committed);
  EXPECT_TRUE(res.report.exactly_once());
  EXPECT_TRUE(res.chains_consistent);
}

TEST(Workload, TinyMempoolAppliesBackpressure) {
  ScenarioOptions opts;
  opts.preset = Preset::kSteadyState;
  opts.cluster.seed(14);
  opts.load_duration = 150 * sim::kMillisecond;
  opts.rate_per_sec = 4000;
  opts.clients = 2;
  opts.cluster.mempool(4, multishot::MempoolPolicy::kRejectNew)
      .batching(2, 8192);  // drain slowly so the bound actually binds
  const auto res = run_scenario(opts);
  EXPECT_GT(res.report.rejected, 0u);
  EXPECT_EQ(res.report.rejected, res.report.mempool_rejected);
  EXPECT_GT(res.report.mempool_depth_max, 0.0);
  EXPECT_LE(res.report.mempool_depth_max, 4.0);
  // Backpressure must not break accounting: whatever was admitted commits
  // exactly once.
  EXPECT_TRUE(res.all_admitted_committed);
  EXPECT_TRUE(res.report.exactly_once());
}

TEST(Workload, DropOldestPolicySurfacesDropsAsMetric) {
  ScenarioOptions opts;
  opts.preset = Preset::kSteadyState;
  opts.cluster.seed(15);
  opts.load_duration = 150 * sim::kMillisecond;
  opts.rate_per_sec = 4000;
  opts.cluster.mempool(4, multishot::MempoolPolicy::kDropOldest).batching(2, 8192);
  const auto res = run_scenario(opts);
  EXPECT_GT(res.report.mempool_dropped_oldest, 0u);
  // Dropped-oldest loses admitted requests by design; the exactly-once
  // contract (no double commits, no foreign commits) still holds.
  EXPECT_TRUE(res.report.exactly_once());
  EXPECT_FALSE(res.all_admitted_committed);
}

TEST(Workload, BatchTimeoutStillMakesProgressWithoutLoad) {
  // With batch_timeout set and no transactions at all, every fresh proposal
  // waits out the timeout and falls back to a filler block: the chain must
  // still grow, just slower.
  test::MsClusterOptions opts;
  opts.max_slots = 6;
  opts.make_node = [](NodeId, const multishot::MultishotConfig& base) {
    auto cfg = base;
    cfg.batch_timeout = 2 * sim::kMillisecond;
    return std::make_unique<multishot::MultishotNode>(cfg);
  };
  auto cluster = test::make_ms_cluster(opts);
  EXPECT_TRUE(cluster.run_until_finalized(2, 10 * sim::kSecond));
  EXPECT_TRUE(cluster.chains_consistent());
}

TEST(Workload, BatchTimeoutProposesImmediatelyOnArrival) {
  // A deferring leader proposes as soon as a transaction lands, well before
  // the timeout expires.
  test::MsClusterOptions opts;
  opts.max_slots = 8;
  opts.make_node = [](NodeId, const multishot::MultishotConfig& base) {
    auto cfg = base;
    cfg.batch_timeout = 500 * sim::kMillisecond;  // effectively forever
    return std::make_unique<multishot::MultishotNode>(cfg);
  };
  auto cluster = test::make_ms_cluster(opts);
  // Feed every node so each slot's leader has a transaction when its turn
  // comes; the pipeline then never waits for the (huge) timeout. A deadline
  // far below the timeout proves the wake-on-arrival path, not the timer.
  std::uint32_t seq = 0;
  for (auto* node : cluster.nodes) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(node->submit_tx(workload::encode_request(9, seq++, 16)));
    }
  }
  EXPECT_TRUE(cluster.run_until_finalized(1, 100 * sim::kMillisecond));
  EXPECT_TRUE(cluster.chains_consistent());
}

TEST(Workload, ClientRetryRescuesRequestsStrandedAtIsolatedReplica) {
  // ROADMAP open item (client-side retry): node 3 admits submissions but is
  // outbound-dead for the whole run -- the "crashed after admission, before
  // relaying" failure real client libraries retry around. Without a retry,
  // every request admitted at node 3 is stranded forever; with
  // client_retry_timeout set, the client re-submits the identical bytes to
  // the next replica, the tag commits once, and the tracker's exactly-once
  // accounting absorbs the duplicate submission.
  ScenarioOptions opts;
  opts.preset = Preset::kSteadyState;
  opts.cluster.seed(44);
  opts.clients = 2;
  opts.rate_per_sec = 400;
  opts.load_duration = 200 * sim::kMillisecond;
  // Well above the worst-case honest commit latency here: every node-3-led
  // slot needs a ~9*Delta view change (its outbound is dead), so latencies
  // spike to a few hundred ms. A timeout below that would retry *healthy*
  // requests and deliberately open the at-least-once window (absorbed as
  // retry_duplicates); this test wants only genuinely stranded rescues.
  opts.client_retry_timeout = 500 * sim::kMillisecond;
  // Benign pre-GST network for the whole (bounded) run so the adversary
  // below may drop node 3's outbound traffic at any time.
  opts.cluster.sim_gst(1000 * sim::kSecond);
  opts.drain_deadline = 120 * sim::kSecond;

  WorkloadRig rig = make_rig(opts);
  rig.sim().network().set_adversary([](const sim::Envelope& env, sim::SimTime)
                                       -> std::optional<sim::DeliveryDecision> {
    if (env.src == 3) return sim::DeliveryDecision{/*drop=*/true, 0};
    return std::nullopt;  // benign stochastics (no drops, delta_actual delay)
  });
  rig.sim().start();
  const bool drained = rig.sim().run_until_pred(
      [&] {
        return rig.sim().now() >= opts.load_duration && rig.tracker->admitted() > 0 &&
               rig.tracker->all_admitted_committed();
      },
      opts.drain_deadline);

  EXPECT_TRUE(drained) << "retries should rescue every request stranded at node 3";
  EXPECT_GT(rig.tracker->retried(), 0u) << "round-robin load must have hit node 3";
  EXPECT_TRUE(rig.tracker->exactly_once());
  EXPECT_EQ(rig.tracker->retry_duplicates(), 0u)
      << "node 3 cannot commit its copy, so even the retry window stays clean";
  EXPECT_TRUE(rig.chains_consistent());

  // Accounting sanity: retries re-submit existing tags; they never mint new
  // logical requests.
  const auto report = rig.tracker->report(rig.sim().now());
  EXPECT_EQ(report.retried, rig.tracker->retried());
  EXPECT_EQ(report.committed, report.admitted);
}

TEST(Workload, RetryAccountingAbsorbsDuplicateSubmissions) {
  // Unit-level: a retry of an admitted tag bumps only the retry counters; a
  // retry that admits a previously rejected tag becomes its admission.
  MetricsRegistry metrics;
  WorkloadTracker tracker(metrics);
  tracker.on_submitted(request_tag(1, 0), 10, /*admitted=*/true);
  tracker.on_retry(request_tag(1, 0), 500, /*admitted=*/true);  // duplicate submission
  EXPECT_EQ(tracker.admitted(), 1u);
  EXPECT_EQ(tracker.retried(), 1u);

  tracker.on_submitted(request_tag(1, 1), 20, /*admitted=*/false);  // rejected original
  tracker.on_retry(request_tag(1, 1), 600, /*admitted=*/true);      // retry admits it
  EXPECT_EQ(tracker.admitted(), 2u);
  EXPECT_EQ(tracker.rejected(), 1u);
  EXPECT_EQ(tracker.retried(), 2u);
  EXPECT_TRUE(tracker.exactly_once());
}

}  // namespace
}  // namespace tbft::workload
