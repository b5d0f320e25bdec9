#pragma once
// Per-layer tallies of a traced run and the per-layer metrics built from
// them. Every workload reports the same metric names; a layer a workload
// does not load reports 0 (S = 1 reports a commit skew of 1).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "multishot/node.hpp"
#include "tracing.hpp"

namespace perfbench {

struct LayerTally {
  // workload
  std::vector<double> gen_late_us;
  std::uint64_t attempted{0};
  std::uint64_t admitted{0};
  std::uint64_t failed{0};
  std::uint64_t committed{0};  ///< requests f+1-committed (per-tx denominators)
  // runtime
  std::vector<double> submit_call_us;
  std::vector<double> deliver_wait_us;
  std::vector<double> timer_late_us;
  std::uint64_t msgs_out{0};
  std::uint64_t timers_set{0};
  // multishot
  std::vector<double> handler_us;
  std::int64_t handler_ns{0};
  std::int64_t host_call_ns{0};
  std::uint64_t msgs_in{0};
  double batch_txs_sum{0};
  std::uint64_t batches{0};
  std::uint64_t view_changes{0};
  std::uint64_t filtered_dup{0};
  std::uint64_t forwarded{0};
  std::uint64_t deliveries{0};  ///< request deliveries summed over replicas
  std::vector<double> stage_queue_ms;
  std::vector<double> stage_notarize_ms;
  std::vector<double> stage_finalize_ms;
  // net
  std::uint64_t frames_tx{0};
  std::uint64_t bytes_tx{0};
  std::uint64_t queue_dropped{0};
  std::uint64_t conns_dropped{0};
  // storage
  std::uint64_t appends{0};
  std::uint64_t disk_bytes{0};
  std::uint64_t checkpoints{0};
  double recover_ms{0};
  std::uint64_t recovered_blocks{0};
  // shard
  std::vector<std::uint64_t> f1_per_shard;
  std::uint64_t misrouted{0};
  // sim
  std::uint64_t sim_msgs{0};
  std::uint64_t sim_bytes{0};
  std::int64_t sim_wall_ns{0};
  // commit p50/p99 of the untraced windows and the untraced cluster's
  // capacity; tracing cost: commit p50 and CPU per request, untraced vs
  // traced
  double capacity_tx_s{0};
  double untraced_p99_ms{0};
  double untraced_p50_ms{0};
  double traced_p50_ms{0};
  double untraced_cpu_us_per_tx{0};
  double traced_cpu_us_per_tx{0};

  /// Fold one traced node's handler/host tallies and protocol counters in.
  void absorb(TracedNode& node);
};

/// One chain instance's recorded timeline (MultishotNode::set_record_timeline),
/// in host time: first proposal and notarization time per slot.
struct Timeline {
  std::map<tbft::Slot, tbft::runtime::Time> proposed;
  std::map<tbft::Slot, tbft::runtime::Time> notarized;

  /// Merge `node`'s records in, keeping the earliest time per slot (a
  /// replica restarted from its WAL records again under a new instance).
  void absorb(const tbft::multishot::MultishotNode& node);
};
/// [shard][replica].
using Timelines = std::vector<std::vector<Timeline>>;

/// Stage split of every committed request in `times`: queue (scheduled send
/// -> first proposal of its slot), notarize (-> (f+1)-th notarization) and
/// finalize (-> f+1 commit). `offset_ns[i]` converts replica i's host time
/// to the ledger's clock.
void stage_split(const std::vector<CommitLedger::Times>& times, const Timelines& timelines,
                 const std::vector<std::int64_t>& offset_ns, std::uint32_t f, LayerTally& out);

/// Append every per-layer metric (BENCHMARK.json "per_layer") to `r`.
void emit_layers(const LayerTally& t, RunResult& r);

}  // namespace perfbench
