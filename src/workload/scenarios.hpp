#pragma once
// Scenario presets: generators composed with the existing fault/adversary
// hooks into fully wired, deterministic load runs. Every run builds its
// replica set through the facade (ClusterBuilder::build_sim, tetrabft.hpp):
// the cluster configuration is a ClusterBuilder, the nodes are S = 1
// ShardMuxes, and the preset's crashed/junk replica is a build_sim
// stand-in.
//
//  - kSteadyState:          constant-rate (or closed-loop) load, no faults;
//  - kBurst:                open-loop load with periodic rate bursts;
//  - kPartitionDuringLoad:  no quorum until GST (partition adversary) while
//                           clients keep submitting; everything admitted
//                           must commit after healing;
//  - kLeaderCrashUnderLoad: node 0 is crashed (silent) throughout -- every
//                           slot it leads needs a view change under load;
//  - kJunkFloodUnderLoad:   node n-1 broadcasts malformed garbage instead of
//                           participating (counts toward f).

#include <cstdint>
#include <memory>
#include <vector>

#include "multishot/node.hpp"
#include "sim/runtime.hpp"
#include "tetrabft.hpp"
#include "workload/generator.hpp"
#include "workload/tracker.hpp"

namespace tbft::workload {

enum class Preset : std::uint8_t {
  kSteadyState,
  kBurst,
  kPartitionDuringLoad,
  kLeaderCrashUnderLoad,
  kJunkFloodUnderLoad,
};

[[nodiscard]] const char* preset_name(Preset p);

struct ScenarioOptions {
  Preset preset{Preset::kSteadyState};
  /// The replica set: membership, seed, timing, batching, pipelining,
  /// mempool and the simulated network (sim_delta_actual, sim_gst). An
  /// explicit sim_gst gives tests a window to attach their own pre-GST
  /// adversary hook to an otherwise well-behaved network; the partition
  /// preset sets its own GST and overrides it.
  ClusterBuilder cluster{ClusterBuilder{}.delta_bound(10 * sim::kMillisecond)};
  /// Generators submit during [0, load_duration).
  sim::SimTime load_duration{500 * sim::kMillisecond};
  /// Absolute cap on the run while draining outstanding requests.
  sim::SimTime drain_deadline{120 * sim::kSecond};
  bool closed_loop{false};
  std::uint32_t clients{2};
  double rate_per_sec{2000.0};   // per open-loop client
  std::uint32_t outstanding{8};  // per closed-loop client
  std::uint32_t request_bytes{64};
  /// Client-side retry (ClientConfig passthrough): re-submit an admitted
  /// request to the next replica when it has not committed within this long
  /// (0 = off). The rescue path when a replica crashes after admission.
  runtime::Duration client_retry_timeout{0};
};

/// Open-loop arrivals (steady or bursty), or a closed loop keeping k
/// requests outstanding per client.
enum class LoadShape : std::uint8_t { kOpenSteady, kOpenBurst, kClosedLoop };

/// The client load a simulated run attaches (add_clients).
struct ClientLoad {
  LoadShape shape{LoadShape::kOpenSteady};
  std::uint32_t clients{2};
  /// Shared by every client; add_clients sets each client_id.
  ClientConfig base;
  double rate_per_sec{1000.0};   // per open-loop client
  std::uint32_t outstanding{4};  // per closed-loop client
};

/// Add `load.clients` generators to `sim` as client actors, in client-id
/// order. Client c submits round-robin over `targets` starting at
/// targets[c % size], so clients spread across replicas. kOpenBurst runs
/// each quarter of the submission window at 4x the rate for its first
/// quarter.
void add_clients(sim::Simulation& sim, const ClientLoad& load,
                 const std::vector<SubmitPort*>& targets, TrackerSink& tracker);

/// A wired run for tests that drive the simulation themselves. Actors are
/// owned by the cluster's simulation.
struct WorkloadRig {
  std::unique_ptr<SimCluster> cluster;
  std::unique_ptr<WorkloadTracker> tracker;
  std::vector<multishot::MultishotNode*> nodes;  // nullptr for crashed/junk
  sim::SimTime gst{0};

  [[nodiscard]] sim::Simulation& sim() const { return cluster->simulation(); }
  /// Definition 2 (Consistency) over every observed pair of finalized chains.
  [[nodiscard]] bool chains_consistent() const;
};

/// Build the preset's cluster, tracker and generators (not yet started).
[[nodiscard]] WorkloadRig make_rig(const ScenarioOptions& opts);

struct ScenarioResult {
  WorkloadReport report;
  std::uint64_t trace_digest{0};
  sim::SimTime elapsed{0};
  bool all_admitted_committed{false};
  bool chains_consistent{false};
};

/// Run the preset end to end: load window, then drain until every admitted
/// request commits (or drain_deadline).
[[nodiscard]] ScenarioResult run_scenario(const ScenarioOptions& opts);

}  // namespace tbft::workload
