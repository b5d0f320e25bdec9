// Adversary factories under sustained load (ISSUE satellite): the partition
// and selective-drop hooks have so far only been exercised incidentally.
// Here they run against live generators and the message trace is inspected
// directly: the partition drops exactly the cross-group traffic before GST,
// selective-drop suppresses exactly the targeted (tag, victim) pairs, and
// in both cases the system commits every admitted request afterwards.

#include <gtest/gtest.h>

#include "sim/adversary.hpp"
#include "workload/generator.hpp"
#include "workload/scenarios.hpp"

namespace tbft::workload {
namespace {

TEST(AdversaryUnderLoad, PartitionDropsExactlyCrossGroupTrafficPreGst) {
  ScenarioOptions opts;
  opts.preset = Preset::kPartitionDuringLoad;
  opts.cluster.seed(31);
  opts.load_duration = 300 * sim::kMillisecond;
  opts.rate_per_sec = 800;

  WorkloadRig rig = make_rig(opts);
  const sim::SimTime gst = rig.gst;
  ASSERT_GT(gst, 0);
  rig.sim().start();
  rig.sim().run_until_pred(
      [&] { return rig.tracker->admitted() > 0 && rig.tracker->all_admitted_committed() &&
                   rig.sim().now() >= opts.load_duration; },
      60 * sim::kSecond);

  const std::uint32_t n = rig.cluster->size();
  const auto in_group_a = [&](NodeId id) { return id < n / 2; };
  std::uint64_t cross_pre_gst = 0;
  std::uint64_t cross_post_gst_delivered = 0;
  for (const auto& m : rig.sim().trace().messages()) {
    if (m.src >= n || m.dst >= n) continue;  // client-side traffic
    const bool cross = in_group_a(m.src) != in_group_a(m.dst);
    if (!cross) {
      // Same-side traffic is never dropped in this scenario (drop prob 0).
      EXPECT_FALSE(m.dropped) << "same-side message dropped at " << m.sent_at;
      continue;
    }
    if (m.sent_at < gst) {
      ++cross_pre_gst;
      EXPECT_TRUE(m.dropped) << "cross-partition message survived at " << m.sent_at;
    } else if (!m.dropped) {
      ++cross_post_gst_delivered;
      EXPECT_LE(m.delivered_at - m.sent_at, 10 * sim::kMillisecond);
    }
  }
  EXPECT_GT(cross_pre_gst, 0u);
  EXPECT_GT(cross_post_gst_delivered, 0u);
  EXPECT_TRUE(rig.tracker->all_admitted_committed());
  EXPECT_TRUE(rig.tracker->exactly_once());
  EXPECT_TRUE(rig.chains_consistent());
}

TEST(AdversaryUnderLoad, SelectiveProposalDropStarvesVictimUntilGst) {
  // Drop every Proposal (tag 11) addressed to node 3 before GST while an
  // open-loop client keeps the system loaded; node 3 must stall behind the
  // others, then -- this is the range-sync contract -- catch all the way up
  // to the tip while traffic continues, instead of lagging permanently on
  // 4-blocks-per-view-change ChainInfo crumbs.
  ScenarioOptions opts;
  opts.preset = Preset::kSteadyState;
  opts.cluster.seed(32);
  opts.load_duration = 200 * sim::kMillisecond;
  opts.rate_per_sec = 500;
  opts.clients = 1;

  const sim::SimTime gst = 100 * sim::kMillisecond;
  opts.cluster.sim_gst(gst);  // benign pre-GST network; the hook below is the only fault
  WorkloadRig rig = make_rig(opts);
  const auto proposal_tag =
      static_cast<std::uint8_t>(multishot::MsType::Proposal);
  rig.sim().network().set_adversary(
      sim::make_selective_drop({proposal_tag}, {NodeId{3}}, gst));
  rig.sim().start();

  rig.sim().run_until(gst);
  // Mid-starvation probe: the victim is strictly behind (it never sees a
  // proposal, and votes alone cannot reconstruct block contents). The rest
  // still progress, though slower than the good case -- the victim is also a
  // rotating leader, so every 4th slot costs a view change.
  Slot longest = 0;
  for (const auto* node : rig.nodes) {
    if (node != nullptr) longest = std::max(longest, node->finalized_count());
  }
  EXPECT_GE(longest, 1u);
  EXPECT_LT(rig.nodes[3]->finalized_count(), longest);

  for (const auto& m : rig.sim().trace().messages()) {
    if (m.type_tag == proposal_tag && m.dst == 3 && m.sent_at < gst) {
      EXPECT_TRUE(m.dropped) << "proposal to the victim survived at " << m.sent_at;
    }
  }

  rig.sim().run_until_pred(
      [&] { return rig.tracker->admitted() > 0 && rig.tracker->all_admitted_committed(); },
      60 * sim::kSecond);
  EXPECT_TRUE(rig.tracker->all_admitted_committed());
  EXPECT_TRUE(rig.tracker->exactly_once());
  EXPECT_TRUE(rig.chains_consistent());
  // Let the victim's next view-change round discover the frontier and run
  // the ranged catch-up, then assert it healed THROUGH RANGE SYNC:
  // pipelined chunks, not one view-change round per handful of blocks.
  rig.sim().run_until(rig.sim().now() + 200 * sim::kMillisecond);
  const auto& by_type = rig.sim().trace().messages_by_type();
  const auto chunks = by_type.find(static_cast<std::uint8_t>(multishot::MsType::SyncChunk));
  ASSERT_NE(chunks, by_type.end()) << "no sync chunks flowed during catch-up";
  EXPECT_GT(chunks->second, 0u);
  // And it reaches the tip: the victim's chain ends within the pipeline's
  // finality depth of the longest one.
  longest = 0;
  for (const auto* node : rig.nodes) {
    if (node != nullptr) longest = std::max(longest, node->finalized_count());
  }
  const Slot victim = rig.nodes[3]->finalized_count();
  EXPECT_GT(victim, 0u);
  EXPECT_GE(victim + 8, longest) << "victim stuck " << (longest - victim)
                                 << " slots behind the tip";
  EXPECT_TRUE(rig.chains_consistent());
}

}  // namespace
}  // namespace tbft::workload
