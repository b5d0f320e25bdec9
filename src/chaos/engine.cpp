#include "chaos/engine.hpp"

#include <cstdio>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "multishot/node.hpp"
#include "sim/adversary.hpp"
#include "tetrabft.hpp"
#include "workload/scenarios.hpp"

namespace tbft::chaos {

namespace fs = std::filesystem;

std::string ChaosVerdict::failure() const {
  if (ok()) return "";
  std::string why;
  const auto add = [&why](const char* part) {
    if (!why.empty()) why += '+';
    why += part;
  };
  if (!chains_consistent) add("chain-divergence");
  if (report.duplicates != 0) add("double-commit");
  if (report.foreign != 0) add("foreign-commit");
  if (report.misrouted != 0) add("misrouted-commit");
  if (report.cross_shard != 0) add("cross-shard-commit");
  if (report.retry_duplicates > report.retried * observers) add("retry-dup-overflow");
  if (!drained) add("undrained");
  if (!progressed) add("no-progress");
  return why;
}

namespace {

/// Confines a single-chain Byzantine adversary to shard 0 of a sharded run:
/// only route-0 traffic reaches it (its own sends are untagged, so they land
/// on shard 0 everywhere), and shard k > 0 messages are dropped instead of
/// being misread as shard-0 protocol state. Without this, an adversary that
/// is "merely" a faulty single-chain node would echo shard-k transactions
/// into shard 0's blocks -- a cross-shard duplication no real per-shard
/// committee member produces, because membership is per shard. The node
/// stays a full Byzantine participant of shard 0 and a silent fault (within
/// budget) everywhere else.
struct ShardZeroAdversary final : runtime::ProtocolNode {
  explicit ShardZeroAdversary(std::unique_ptr<runtime::ProtocolNode> inner)
      : inner_(std::move(inner)) {}
  void on_start() override {
    inner_->bind(ctx());  // lazy: our own context exists by now
    inner_->on_start();
  }
  void on_message(NodeId from, const Payload& payload) override {
    if (payload.route() == 0) inner_->on_message(from, payload);
  }
  void on_timer(runtime::TimerId id) override { inner_->on_timer(id); }
  std::unique_ptr<runtime::ProtocolNode> inner_;
};

/// Per-replica state for the failure dump: finalized counts, the first
/// unfinalized slots' notarizations, and every mempool entry.
void dump_replicas(SimCluster& cluster) {
  auto& mx = cluster.simulation().metrics();
  std::fprintf(stderr, "blockreq sent=%llu served=%llu adopted=%llu\n",
               static_cast<unsigned long long>(mx.counter("multishot.blockreq.sent").value()),
               static_cast<unsigned long long>(mx.counter("multishot.blockreq.served").value()),
               static_cast<unsigned long long>(mx.counter("multishot.blockreq.adopted").value()));
  std::vector<std::vector<multishot::MultishotNode*>> shards;
  for (std::uint32_t k = 0; k < cluster.shards(); ++k) shards.push_back(cluster.shard_instances(k));
  for (NodeId i = 0; i < cluster.size(); ++i) {
    for (std::uint32_t k = 0; k < cluster.shards(); ++k) {
      if (shards[k][i] == nullptr) continue;
      const auto& inst = *shards[k][i];
      std::fprintf(stderr, "node %u shard %u: finalized=%llu pool=%zu\n", i, k,
                   static_cast<unsigned long long>(inst.finalized_count()),
                   inst.mempool().size());
      const auto& ch = inst.chain();
      const Slot first = inst.finalized_count() + 1;
      for (Slot s = first; s < first + 4; ++s) {
        const auto nz = ch.notarized(s);
        if (!nz) {
          std::fprintf(stderr, "  slot %llu: no notarization\n",
                       static_cast<unsigned long long>(s));
          continue;
        }
        const auto* blk = ch.find_block(s, nz->hash);
        std::fprintf(stderr,
                     "  slot %llu: notarized view=%llu hash=%016llx block=%s parent=%016llx"
                     " want_parent=%016llx\n",
                     static_cast<unsigned long long>(s),
                     static_cast<unsigned long long>(nz->view),
                     static_cast<unsigned long long>(nz->hash), blk ? "yes" : "MISSING",
                     blk ? static_cast<unsigned long long>(blk->parent_hash) : 0ULL,
                     static_cast<unsigned long long>(
                         s == first ? ch.finalized_tip_hash()
                                    : (ch.notarized(s - 1) ? ch.notarized(s - 1)->hash : 0)));
      }
      for (const auto& e : inst.mempool().entries()) {
        std::fprintf(stderr, "  tx hash=%016llx size=%zu inflight=%d slot=%llu hold_until=%lld\n",
                     static_cast<unsigned long long>(e.hash), e.tx.size(), e.inflight,
                     static_cast<unsigned long long>(e.slot),
                     static_cast<long long>(e.hold_until));
      }
    }
  }
}

}  // namespace

ChaosVerdict run_plan(const ScenarioPlan& plan, const fs::path& work_dir) {
  TBFT_ASSERT_MSG(plan.roles.size() == plan.n, "plan roles not sized n");

  // Every plan starts from empty chains; restarts within the run recover
  // from what the run itself wrote here.
  fs::remove_all(work_dir);
  fs::create_directories(work_dir);

  // One builder per plan. The network is synchronous from the start: all
  // chaos is scheduled, not stochastic. Every value is spelled out, defaults
  // included: the fuzz corpus's trace digests pin them.
  ClusterBuilder builder;
  builder.nodes(plan.n)
      .faults(plan.f)
      .shards(plan.shards)
      .seed(plan.seed)
      .delta_bound(plan.delta_bound)
      .sim_delta_actual(std::max<sim::SimTime>(1, plan.delta_bound / 10))
      .batching(32, 4096)
      .mempool(4096, multishot::MempoolPolicy::kRejectNew)
      .pipelining(plan.pipeline_depth)
      .adaptive_batching(plan.adaptive_batch_txs)
      .data_dir(work_dir.string())
      .checkpoint_every(16)
      .wal_flush_every(1)
      .wal_segment_bytes(32u << 10);

  // Byzantine roles stand in for honest replicas. Sharded runs confine each
  // single-chain adversary to shard 0 (see ShardZeroAdversary); at S = 1 the
  // wrapper is skipped and the historical byte-identical path runs.
  const auto stand_in = [&](NodeId i, const multishot::MultishotConfig& cfg) {
    std::unique_ptr<runtime::ProtocolNode> node;
    switch (plan.roles[i]) {
      case ByzRole::kSilent:
        node = std::make_unique<sim::SilentNode>();
        break;
      case ByzRole::kJunk:
        node = std::make_unique<sim::RandomJunkNode>(plan.delta_bound / 2);
        break;
      case ByzRole::kSlowLoris:
        // Hold each proposal to the timeout edge: victims' 9-Delta view
        // timers are 2 Delta away when the proposal finally ships.
        node = std::make_unique<sim::SlowLorisLeader>(cfg, 7 * plan.delta_bound);
        break;
      case ByzRole::kEquivocator:
        node = std::make_unique<sim::ViewChangeEquivocator>(cfg);
        break;
      case ByzRole::kHonest:
        return node;
    }
    if (plan.shards > 1) node = std::make_unique<ShardZeroAdversary>(std::move(node));
    return node;
  };
  const std::unique_ptr<SimCluster> cluster = builder.build_sim(stand_in);
  sim::Simulation& simu = cluster->simulation();
  simu.network().set_topology(plan.topology);

  ChaosVerdict v;
  const std::uint32_t S = plan.shards;
  workload::WorkloadTracker tracker(simu.metrics(), S);
  const auto observe = [&](NodeId i) {
    for (std::uint32_t k = 0; k < S; ++k) tracker.observe(cluster->instance(i, k), k);
    ++v.observers;
  };

  // Clients target honest replicas only (their ports survive churn), with
  // staggered round-robin start points, exactly like the workload rig.
  std::vector<workload::SubmitPort*> honest;
  for (NodeId i = 0; i < plan.n; ++i) {
    if (plan.roles[i] == ByzRole::kHonest) {
      observe(i);
      honest.push_back(&cluster->port(i));
    }
  }
  workload::ClientLoad load;
  load.shape = plan.load;
  load.clients = plan.clients;
  load.base.request_bytes = plan.request_bytes;
  load.base.stop = plan.load_duration;
  load.base.retry_timeout = plan.client_retry_timeout;
  load.rate_per_sec = plan.rate_per_sec;
  load.outstanding = plan.outstanding;
  workload::add_clients(simu, load, honest, tracker);

  simu.start();

  // --- The churn schedule: crash at down_at, recover from disk at up_at. ---
  for (const ChurnEvent& ev : plan.churn) {
    simu.run_until(ev.down_at);
    cluster->crash(ev.node);
    ++v.crashes;

    simu.run_until(ev.up_at);
    cluster->restart(ev.node);
    observe(ev.node);
    ++v.restarts;
  }

  // --- Load window + drain. Every chaos client retries, so a request
  // stranded in a crashed mempool is re-submitted once its retry timer
  // fires: unlike the workload rig there is no empty-pools early exit --
  // the run ends when everything admitted committed (or at the deadline,
  // which is then a liveness failure).
  const auto drained = [&] {
    return simu.now() >= plan.load_duration && tracker.admitted() > 0 &&
           tracker.all_admitted_committed();
  };
  simu.run_until_pred(drained, plan.drain_deadline);
  v.elapsed = simu.now();
  // Let in-flight traffic settle so lagging replicas converge before the
  // consistency check.
  simu.run_until(simu.now() + 2 * plan.delta_bound);

  v.report = tracker.report(v.elapsed);
  v.drained = tracker.admitted() > 0 && tracker.all_admitted_committed();
  v.progressed = v.report.committed > 0;
  // Safety is per shard: every shard's chains must agree across the live
  // replicas (cross-shard and misrouted commits are the report's to catch).
  v.chains_consistent = true;
  for (std::uint32_t k = 0; k < S; ++k) {
    const std::vector<multishot::MultishotNode*> shard_chains = cluster->shard_instances(k);
    v.chains_consistent = v.chains_consistent && multishot::chains_prefix_consistent(shard_chains);
    for (const auto* chain : shard_chains) {
      if (chain != nullptr) v.max_finalized = std::max(v.max_finalized, chain->finalized_count());
    }
  }
  v.trace_digest = simu.trace().digest();
  if (!v.ok()) dump_replicas(*cluster);
  return v;
}

}  // namespace tbft::chaos
