#include "workload/scenarios.hpp"

#include <utility>

#include "common/assert.hpp"
#include "sim/adversary.hpp"

namespace tbft::workload {

const char* preset_name(Preset p) {
  switch (p) {
    case Preset::kSteadyState: return "steady-state";
    case Preset::kBurst: return "burst";
    case Preset::kPartitionDuringLoad: return "partition-during-load";
    case Preset::kLeaderCrashUnderLoad: return "leader-crash-under-load";
    case Preset::kJunkFloodUnderLoad: return "junk-flood-under-load";
  }
  return "?";
}

bool WorkloadRig::chains_consistent() const {
  return multishot::chains_prefix_consistent(nodes);
}

void add_clients(sim::Simulation& sim, const ClientLoad& load,
                 const std::vector<SubmitPort*>& targets, TrackerSink& tracker) {
  TBFT_ASSERT_MSG(!targets.empty(), "client load needs at least one target replica");
  for (std::uint32_t c = 0; c < load.clients; ++c) {
    ClientConfig base = load.base;
    base.client_id = c;
    std::vector<SubmitPort*> rotated;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      rotated.push_back(targets[(c + i) % targets.size()]);
    }
    if (load.shape == LoadShape::kClosedLoop) {
      ClosedLoopConfig cl;
      cl.base = base;
      cl.outstanding = load.outstanding;
      sim.add_client(std::make_unique<ClosedLoopClient>(cl, std::move(rotated), tracker));
    } else {
      OpenLoopConfig ol;
      ol.base = base;
      ol.rate_per_sec = load.rate_per_sec;
      if (load.shape == LoadShape::kOpenBurst) {
        ol.burst_period = (base.stop - base.start) / 4;
        ol.burst_duty = 0.25;
        ol.burst_multiplier = 4.0;
      }
      sim.add_client(std::make_unique<OpenLoopClient>(ol, std::move(rotated), tracker));
    }
  }
}

WorkloadRig make_rig(const ScenarioOptions& opts) {
  WorkloadRig rig;
  ClusterBuilder builder = opts.cluster;
  if (opts.preset == Preset::kPartitionDuringLoad) {
    // The partition is the only pre-GST misbehavior: same-side traffic flows
    // at delta_actual so the scenario isolates the quorum loss itself.
    builder.sim_gst(opts.load_duration / 2);
  }
  const sim::NetworkConfig net = builder.sim_network();
  rig.gst = net.gst;
  rig.cluster = builder.build_sim([&](NodeId i, const multishot::MultishotConfig& cfg)
                                      -> std::unique_ptr<runtime::ProtocolNode> {
    if (opts.preset == Preset::kLeaderCrashUnderLoad && i == 0) {
      return std::make_unique<sim::SilentNode>();
    }
    if (opts.preset == Preset::kJunkFloodUnderLoad && i == cfg.n - 1) {
      return std::make_unique<sim::RandomJunkNode>(net.delta_actual);
    }
    return nullptr;
  });
  SimCluster& cluster = *rig.cluster;

  if (opts.preset == Preset::kPartitionDuringLoad) {
    std::vector<NodeId> group_a;
    for (NodeId i = 0; i < cluster.size() / 2; ++i) group_a.push_back(i);
    rig.sim().network().set_adversary(sim::make_partition_until_gst(group_a, rig.gst));
  }

  rig.nodes = cluster.shard_instances();
  rig.tracker = std::make_unique<WorkloadTracker>(rig.sim().metrics());
  // Generators never touch MultishotNode directly: they submit through the
  // facade's SubmitPorts, so the load path stays transport-agnostic.
  std::vector<SubmitPort*> honest;
  for (NodeId i = 0; i < cluster.size(); ++i) {
    if (rig.nodes[i] != nullptr) {
      rig.tracker->observe(*rig.nodes[i]);
      honest.push_back(&cluster.port(i));
    }
  }

  ClientLoad load;
  load.shape = opts.closed_loop                  ? LoadShape::kClosedLoop
               : opts.preset == Preset::kBurst ? LoadShape::kOpenBurst
                                               : LoadShape::kOpenSteady;
  load.clients = opts.clients;
  load.base.request_bytes = opts.request_bytes;
  load.base.stop = opts.load_duration;
  load.base.retry_timeout = opts.client_retry_timeout;
  load.rate_per_sec = opts.rate_per_sec;
  load.outstanding = opts.outstanding;
  add_clients(rig.sim(), load, honest, *rig.tracker);
  return rig;
}

ScenarioResult run_scenario(const ScenarioOptions& opts) {
  WorkloadRig rig = make_rig(opts);
  sim::Simulation& simu = rig.sim();
  simu.start();

  // Load window plus drain: done once the window closed and every admitted
  // request committed (the admitted > 0 guard keeps the predicate from
  // tripping before the first submission). Under kDropOldest some admitted
  // requests are evicted and can never commit, so empty mempools -- every
  // admitted request finalized or dropped, no batch still in flight -- end
  // the run too.
  const auto pools_empty = [&] {
    for (const auto* node : rig.nodes) {
      if (node != nullptr && node->mempool().size() != 0) return false;
    }
    return true;
  };
  const auto drained = [&] {
    return simu.now() >= opts.load_duration && rig.tracker->admitted() > 0 &&
           (rig.tracker->all_admitted_committed() || pools_empty());
  };
  simu.run_until_pred(drained, opts.drain_deadline);

  ScenarioResult res;
  res.elapsed = simu.now();
  // Let in-flight traffic settle so lagging replicas converge before the
  // consistency check (commits are already in).
  simu.run_until(simu.now() + 2 * simu.network().config().delta_bound);

  res.report = rig.tracker->report(res.elapsed);
  res.trace_digest = simu.trace().digest();
  res.all_admitted_committed =
      rig.tracker->admitted() > 0 && rig.tracker->all_admitted_committed();
  res.chains_consistent = rig.chains_consistent();
  return res;
}

}  // namespace tbft::workload
