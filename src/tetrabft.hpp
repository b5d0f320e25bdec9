#pragma once
// Public facade for embedding TetraBFT. Examples, tools and the workload
// engine program against this header instead of reaching into
// MultishotNode internals.
//
//   ClusterBuilder b;
//   b.nodes(4).delta_bound(50 * tbft::runtime::kMillisecond);
//   auto cluster = b.build_local();          // real-time: one thread/node
//   cluster->on_commit([](const tbft::runtime::Commit& c) { ... });
//   cluster->start();
//   cluster->submit(0, {'t','x'});
//   cluster->wait_for([&]{ return done; }, 5 * tbft::runtime::kSecond);
//   cluster->stop();
//
// One node shape: every replica on every backend is a shard::ShardMux of
// S = shards() chain instances (S = 1, the default, is the classic single
// chain, byte-identical to hosting a bare MultishotNode). Requests route to
// their key's home shard; commits surface on the composite stream
// `(shard << 48) | slot` (shard/router.hpp), which is the plain slot at
// S = 1. Three facade types build from the same validated configuration:
//  - Cluster, real time: build_local() hosts the replicas on a
//    runtime::LocalRunner (OS threads, shared-memory message passing);
//    build_socket() on n runtime::SocketHosts talking TCP over loopback --
//    every message crosses a real socket, shard route included;
//  - SimCluster, build_sim(): a sim::Simulation cluster -- deterministic
//    virtual time, the verification tool of record, and the only code that
//    builds a simulated replica set (the workload rig and the chaos engine
//    are its callers). Client actors (workload generators) attach here; the
//    facade adds every protocol node before any client, and the Simulation
//    rejects out-of-order additions with a clear error instead of silently
//    renumbering actors. Optional per-replica stand-ins (Byzantine or silent
//    nodes) take an id's place at build time, and crash()/restart() churn an
//    honest replica through its data dir like a rebooted process;
//  - SocketNode, build_socket_node(): ONE replica of a genuinely
//    multi-process deployment; the caller distributes listen ports
//    (ephemeral binds are discoverable via SocketNode::port()) and wires
//    peers with set_peer_endpoint before start() -- see
//    examples/socket_cluster.cpp.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "multishot/node.hpp"
#include "runtime/host.hpp"
#include "runtime/local_runner.hpp"
#include "runtime/socket_host.hpp"
#include "shard/mux.hpp"
#include "shard/router.hpp"
#include "sim/runtime.hpp"
#include "storage/durable_chain.hpp"
#include "workload/generator.hpp"
#include "workload/request.hpp"

namespace tbft {

class ClusterBuilder;

namespace detail {
/// Single CommitSink fanning every host's commits out to registered
/// callbacks and waking wait_for waiters, so the commit-observation
/// semantics are identical across transports.
struct CommitHub final : runtime::CommitSink {
  void on_commit(const runtime::Commit& commit) override;
  /// Block until `pred()` holds or `timeout` elapses; `pred` runs under the
  /// hub lock and is re-checked after every commit.
  bool wait_for(const std::function<bool()>& pred, runtime::Duration timeout);

  std::mutex mx;
  std::condition_variable cv;
  std::vector<std::function<void(const runtime::Commit&)>> callbacks;
};

/// What every facade type hosts: per replica one shard::ShardMux with its
/// durability drivers, and the key router that places requests on shards.
class Replicas {
 public:
  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(muxes_.size());
  }
  [[nodiscard]] std::uint32_t shards() const noexcept { return router_.shards(); }
  [[nodiscard]] const shard::ShardRouter& router() const noexcept { return router_; }

  /// Replica `id`'s instance of `shard`. Throws std::out_of_range for an
  /// unknown replica, a stand-in or crashed SimCluster replica, or
  /// `shard >= shards()`, and std::logic_error while a real-time cluster
  /// runs (direct access races the replica thread: stop() first, or
  /// submit()). Chain inspection and test assertions.
  [[nodiscard]] multishot::MultishotNode& instance(NodeId id, std::uint32_t shard = 0);
  /// Replica `id`'s chain (its shard-0 instance).
  [[nodiscard]] multishot::MultishotNode& replica(NodeId id) { return instance(id); }
  /// Every replica's instance of `shard` (for chains_prefix_consistent);
  /// nullptr for a stand-in or crashed replica.
  [[nodiscard]] std::vector<multishot::MultishotNode*> shard_instances(std::uint32_t shard = 0);

  /// The durability driver of replica `id`'s instance of `shard`, or nullptr
  /// when built without ClusterBuilder::data_dir (fully in-memory).
  [[nodiscard]] storage::DurableChain* durable(NodeId id, std::uint32_t shard = 0) {
    return id < durables_.size() && shard < durables_[id].size() ? durables_[id][shard].get()
                                                                 : nullptr;
  }

 protected:
  friend class tbft::ClusterBuilder;
  explicit Replicas(std::uint32_t shards) : router_(shards) {}

  shard::ShardRouter router_;
  std::vector<shard::ShardMux*> muxes_;  // owned by the host; nullptr = stand-in or down
  std::vector<std::vector<std::unique_ptr<storage::DurableChain>>> durables_;  // [node][shard]
  bool running_{false};  // real-time clusters: between start() and stop()
};
}  // namespace detail

/// A real-time TetraBFT cluster: n replicas hosted by one runtime::LocalRunner
/// (build_local) or by n runtime::SocketHosts wired over loopback TCP on
/// ephemeral ports (build_socket; race-free under CI -- nothing guesses a
/// free port).
class Cluster : public detail::Replicas {
 public:
  using CommitCallback = std::function<void(const runtime::Commit&)>;

  ~Cluster();  // stops the hosts

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Subscribe to every commit any replica publishes. Must be called before
  /// start(). Callbacks run on replica threads, serialized by the cluster;
  /// wait_for predicates are re-evaluated after each callback.
  void on_commit(CommitCallback cb);

  void start();
  /// Stop every replica thread and flush durable state. Idempotent; after
  /// stop() the replicas are quiescent and instance() inspection is safe.
  void stop();

  /// Block until `pred()` holds or `timeout` elapses; `pred` is evaluated
  /// under the cluster's commit lock, re-checked on every commit. Returns
  /// whether the predicate held.
  bool wait_for(const std::function<bool()>& pred, runtime::Duration timeout);

  /// Submit a transaction at replica `id`, onto its key's home shard. Runs
  /// on the replica's thread (serialized with its handlers); before start()
  /// it applies immediately, which is how initial state is seeded.
  void submit(NodeId id, std::vector<std::uint8_t> tx);

  /// The LocalRunner of a build_local() cluster (throws std::logic_error
  /// on a socket cluster).
  [[nodiscard]] runtime::LocalRunner& runner();
  /// Replica `id`'s SocketHost on a build_socket() cluster (throws
  /// std::out_of_range otherwise).
  [[nodiscard]] runtime::SocketHost& host(NodeId id) { return *hosts_.at(id); }

 protected:
  friend class ClusterBuilder;
  explicit Cluster(std::uint32_t shards) : Replicas(shards) {}

  std::unique_ptr<runtime::LocalRunner> runner_;             // build_local
  std::vector<std::unique_ptr<runtime::SocketHost>> hosts_;  // build_socket
  detail::CommitHub hub_;
};

// Kept only because the frozen end-to-end benchmark (perfbench/) names them.
using SocketCluster = Cluster;
using ShardedCluster = Cluster;

/// What build_sim() hosts at replica `id` instead of an honest replica: a
/// Byzantine or silent protocol node built from the cluster's validated
/// MultishotConfig, or nullptr for an honest replica.
using StandInFactory = std::function<std::unique_ptr<runtime::ProtocolNode>(
    NodeId, const multishot::MultishotConfig&)>;

/// A deterministic simulated cluster built from the same configuration
/// (sim::Simulation backend). The facade owns the actor-ordering rules:
/// all protocol nodes are added at build time, clients afterwards.
class SimCluster : public detail::Replicas {
 public:
  // Its ports and its replica factory hold the cluster's address.
  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  [[nodiscard]] sim::Simulation& simulation() noexcept { return *sim_; }

  /// Submit a transaction at replica `id`, onto its key's home shard
  /// (direct call: the simulation is single-threaded). Returns mempool
  /// admission; a stand-in or crashed replica refuses, like a dead endpoint.
  bool submit(NodeId id, std::vector<std::uint8_t> tx) {
    shard::ShardMux* mux = muxes_.at(id);
    if (mux == nullptr) return false;
    const std::uint32_t shard = router_.route(tx);
    return mux->submit(shard, std::move(tx));
  }

  /// The workload::SubmitPort view of replica `id` -- hand these to the
  /// load generators (workload::LoadClient and friends), which program
  /// against this boundary; client retries walk replicas while a tag's home
  /// shard stays fixed. The port outlives crash/restart: it refuses while
  /// the replica is down and reaches the rebuilt replica afterwards.
  [[nodiscard]] workload::SubmitPort& port(NodeId id) { return *ports_.at(id); }

  /// Crash honest replica `id`: the simulation silences it (pending timers
  /// and deliveries die with it) and its DurableChains close, like process
  /// death. Throws std::logic_error for a stand-in or an already-down id.
  void crash(NodeId id);
  /// Rebuild crashed replica `id` from its data dir (recovering whatever its
  /// write-ahead logs and checkpoints hold) and re-add it; it starts at once
  /// if the simulation runs. Re-observe its new instances (instance(id, k))
  /// in any commit tracker. Throws std::logic_error unless replica `id` is
  /// down.
  void restart(NodeId id);

  /// Attach a client actor (workload generator, observer). Always legal
  /// here: the builder added every protocol node already, which is the
  /// ordering Simulation::add_node enforces with a clear error.
  NodeId add_client(std::unique_ptr<runtime::ProtocolNode> client) {
    return sim_->add_client(std::move(client));
  }

  void start() { sim_->start(); }

  /// Run until every instance of every honest live replica finalized
  /// >= `target` slots (stand-ins and crashed replicas are skipped).
  bool run_until_all_finalized(Slot target, runtime::Duration deadline);

 private:
  friend class ClusterBuilder;
  explicit SimCluster(std::uint32_t shards) : Replicas(shards) {}

  std::unique_ptr<sim::Simulation> sim_;
  std::vector<std::unique_ptr<workload::SubmitPort>> ports_;
  /// Builds replica `id` afresh from the cluster's configuration and
  /// records it (ClusterBuilder::make_replica over a copy of the builder).
  std::function<std::unique_ptr<shard::ShardMux>(NodeId)> rebuild_;
};

/// ONE replica of a multi-process TetraBFT cluster (runtime::SocketHost
/// backend). The process that owns it must distribute listen addresses out
/// of band -- bind an ephemeral port, read it back with port(), exchange,
/// then set_peer_endpoint for every peer before start(). The commit
/// callbacks observe only this replica's finalizations; cross-node
/// agreement is checked by comparing chains (examples/socket_cluster.cpp).
class SocketNode : private Cluster {
 public:
  using Cluster::on_commit;
  using Cluster::shards;
  using Cluster::start;
  using Cluster::stop;
  using Cluster::wait_for;

  [[nodiscard]] NodeId id() const noexcept { return hosts_.front()->id(); }
  /// The actually bound listen port (resolves ephemeral binds).
  [[nodiscard]] std::uint16_t port() const noexcept { return hosts_.front()->port(); }
  /// Where peer `peer` listens. Before start() only.
  void set_peer_endpoint(NodeId peer, net::Endpoint ep) {
    hosts_.front()->set_peer_endpoint(peer, std::move(ep));
  }

  /// Submit a transaction onto its key's home shard, on the replica's own
  /// thread; before start() it applies immediately.
  void submit(std::vector<std::uint8_t> tx) { Cluster::submit(0, std::move(tx)); }
  /// This replica's instance of `shard`; same rules as Cluster::instance.
  [[nodiscard]] multishot::MultishotNode& instance(std::uint32_t shard = 0) {
    return Cluster::instance(0, shard);
  }
  [[nodiscard]] runtime::SocketHost& host() { return Cluster::host(0); }
  /// This replica's durability driver for `shard`, or nullptr without data_dir.
  [[nodiscard]] storage::DurableChain* durable(std::uint32_t shard = 0) {
    return Cluster::durable(0, shard);
  }

 private:
  friend class ClusterBuilder;
  explicit SocketNode(std::uint32_t shards) : Cluster(shards) {}
};

/// Configures a TetraBFT cluster: membership (n/f), timing, leader
/// batching, mempool bounds, finalized-storage tail. Validates eagerly --
/// misconfiguration throws std::invalid_argument/std::logic_error with an
/// actionable message at the call, never a silent misbehavior later.
class ClusterBuilder {
 public:
  /// Membership size. f defaults to the largest tolerable (n-1)/3.
  ClusterBuilder& nodes(std::uint32_t n);
  /// Explicit fault budget (0 is legal: no tolerated faults, quorum = n);
  /// must keep n > 3f.
  ClusterBuilder& faults(std::uint32_t f);
  /// Shard count S: every replica runs S independent chain instances over
  /// the shared transport (shard::ShardMux), with requests key-routed to
  /// their home shard, on every backend. 1 (the default) is the classic
  /// single chain. Must be in [1, 1024].
  ClusterBuilder& shards(std::uint32_t s);
  ClusterBuilder& seed(std::uint64_t seed);
  /// Known message-delay bound Delta (drives the 9*Delta view timers).
  ClusterBuilder& delta_bound(runtime::Duration delta);
  /// Leader batching: cap per fresh block, byte budget, and how long an
  /// empty-mempool leader defers a fresh proposal waiting for load.
  ClusterBuilder& batching(std::uint32_t max_txs, std::uint32_t max_bytes,
                           runtime::Duration timeout = 0);
  /// Slot pipelining: a leader may have up to `depth` consecutive led slots
  /// proposed before the earliest finalizes (1 = classic one-at-a-time, and
  /// byte-identical to it). Must be in [1, 16].
  ClusterBuilder& pipelining(std::uint32_t depth);
  /// Adaptive batching: under mempool backlog the per-proposal caps grow
  /// toward `max_txs` transactions (byte budget scales in proportion).
  /// Values <= the batching() tx cap disable adaptation (the default).
  ClusterBuilder& adaptive_batching(std::uint32_t max_txs);
  ClusterBuilder& mempool(std::size_t capacity, multishot::MempoolPolicy policy);
  /// Resident finalized blocks kept behind the compaction checkpoint.
  ClusterBuilder& storage_tail(std::size_t blocks);
  /// Relay submissions to the frontier leader while the chain idles.
  ClusterBuilder& forwarding(bool on);
  /// Simulated actual delay (build_sim only; build_local runs on real time).
  ClusterBuilder& sim_delta_actual(runtime::Duration delta);
  /// Simulated global stabilization time (build_sim only; 0, the default,
  /// is synchronous from the start). Before `t` the network is benign -- no
  /// drops, sim_delta_actual delays -- so a run's only pre-GST misbehavior
  /// is whatever adversary hook the caller installs (a partition, a
  /// one-sided link).
  ClusterBuilder& sim_gst(runtime::Time t);

  /// Root directory for durable storage. Each replica's chain gets
  /// `<path>/node-<id>` at S = 1 and `<path>/node-<id>/shard-<k>` otherwise
  /// (created on demand): a write-ahead log of finalized blocks plus an
  /// atomic checkpoint file. Every builder recovers whatever state those
  /// directories hold before any node starts, so a rebuilt cluster resumes
  /// from its durable tip. Empty (the default) keeps the cluster fully
  /// in-memory.
  ClusterBuilder& data_dir(std::string path);
  /// Enable/disable range-sync catch-up (and with it checkpoint state
  /// transfer). On by default; disabling it relaxes the tail-vs-window
  /// validation in node_config().
  ClusterBuilder& range_sync(bool on);
  /// Rotate exact commit-index entries into per-epoch Bloom filters every
  /// `slots` finalized slots (0 = keep every entry exact). Bounds resident
  /// commit-query memory on long chains.
  ClusterBuilder& commit_epochs(Slot slots);
  /// Durable-checkpoint cadence: write a new checkpoint file (and reclaim
  /// covered WAL segments) every `slots` slots of compaction progress.
  ClusterBuilder& checkpoint_every(Slot slots);
  /// fflush the WAL every `records` appends (1 = flush each block; higher
  /// trades a longer torn tail on crash for less write amplification).
  ClusterBuilder& wal_flush_every(std::uint32_t records);
  /// Rotate to a fresh WAL segment once the active one exceeds `bytes`
  /// (smaller segments reclaim sooner after a checkpoint; larger ones open
  /// fewer files).
  ClusterBuilder& wal_segment_bytes(std::size_t bytes);

  /// Socket transport: redial backoff after a lost connection (first delay,
  /// exponential, saturating at `cap`), with a seeded mean-preserving
  /// `jitter` fraction spread around each delay (0 = deterministic,
  /// must be <= 1).
  ClusterBuilder& socket_backoff(runtime::Duration base, runtime::Duration cap,
                                 double jitter = 0.1);
  /// Socket transport: send a ping after `ping_after` of rx silence; drop a
  /// connection silent for `drop_after` (half-open detection).
  ClusterBuilder& socket_liveness(runtime::Duration ping_after,
                                  runtime::Duration drop_after);
  /// Socket transport: outbound payloads buffered per peer before newest
  /// are dropped (and counted) -- a dead peer must not grow memory.
  ClusterBuilder& socket_queue(std::size_t max_payloads);
  /// Socket transport: largest accepted rx frame payload. Must exceed the
  /// largest encoded protocol message (batches, range-sync replies).
  ClusterBuilder& socket_max_frame(std::size_t bytes);

  /// The validated MultishotConfig every backend builds from.
  [[nodiscard]] multishot::MultishotConfig node_config() const;
  /// The simulated network build_sim() builds from (delta bound, actual
  /// delay, GST).
  [[nodiscard]] sim::NetworkConfig sim_network() const;

  /// A real-time cluster on one LocalRunner: one thread per replica.
  [[nodiscard]] std::unique_ptr<Cluster> build_local() const;
  /// Kept only because the frozen end-to-end benchmark (perfbench/) names it.
  [[nodiscard]] std::unique_ptr<Cluster> build_sharded_local() const { return build_local(); }
  /// A deterministic cluster on one sim::Simulation (virtual time). Where
  /// `stand_ins` returns a node for an id, that node takes the id's place
  /// instead of an honest replica (no mux, no durable state, no port
  /// admission; instance() throws for it).
  [[nodiscard]] std::unique_ptr<SimCluster> build_sim(const StandInFactory& stand_ins = {}) const;
  /// An in-process loopback-TCP cluster: n SocketHosts on ephemeral ports,
  /// fully wired and ready to start().
  [[nodiscard]] std::unique_ptr<Cluster> build_socket() const;
  /// One replica of a multi-process cluster, listening on `listen` (port 0
  /// = ephemeral; read it back with SocketNode::port()). Peer endpoints must
  /// be wired with set_peer_endpoint before start(). With data_dir, this
  /// replica recovers from and persists to its data_dir layout.
  [[nodiscard]] std::unique_ptr<SocketNode> build_socket_node(
      NodeId id, net::Endpoint listen = {}) const;

 private:
  std::uint32_t n_{4};
  std::optional<std::uint32_t> f_;  // unset = derive (n-1)/3
  std::uint32_t shards_{1};
  std::uint64_t seed_{1};
  runtime::Duration delta_bound_{50 * runtime::kMillisecond};
  runtime::Duration sim_delta_actual_{1 * runtime::kMillisecond};
  runtime::Time sim_gst_{0};
  std::uint32_t max_batch_txs_{64};
  std::uint32_t max_batch_bytes_{8192};
  runtime::Duration batch_timeout_{0};
  std::uint32_t pipeline_depth_{1};
  std::uint32_t adaptive_batch_txs_{0};  // <= max_batch_txs_ = off
  std::size_t mempool_capacity_{4096};
  multishot::MempoolPolicy mempool_policy_{multishot::MempoolPolicy::kRejectNew};
  std::size_t finalized_tail_{multishot::FinalizedStore::kDefaultTailCapacity};
  bool forward_to_leader_{true};
  std::string data_dir_;  // empty = in-memory only
  bool enable_sync_{true};
  Slot commit_epoch_slots_{0};
  Slot checkpoint_every_{1024};
  std::uint32_t wal_flush_every_{64};
  std::size_t wal_segment_bytes_{storage::DurableOptions{}.segment_bytes};
  runtime::Duration socket_backoff_base_{10 * runtime::kMillisecond};
  runtime::Duration socket_backoff_cap_{1 * runtime::kSecond};
  double socket_backoff_jitter_{0.1};
  runtime::Duration socket_ping_after_{500 * runtime::kMillisecond};
  runtime::Duration socket_drop_after_{2 * runtime::kSecond};
  std::size_t socket_queue_{4096};
  std::size_t socket_max_frame_{1u << 20};

  /// The validated SocketHostConfig for node `id` (peers unwired).
  [[nodiscard]] runtime::SocketHostConfig socket_host_config(
      NodeId id, net::Endpoint listen) const;

  /// Replica `id`'s mux of S chain instances. With data_dir each instance
  /// recovers whatever its chain directory holds and persists every
  /// finalized block there:
  ///
  ///   <data_dir>/node-<id>              the chain directory at S = 1
  ///   <data_dir>/node-<id>/shard-<k>    shard k's chain directory at S > 1
  ///
  /// Records the mux and its durables in `into` at position `at` (the id,
  /// except a SocketNode's lone replica at 0). The caller hands the mux to
  /// its host.
  std::unique_ptr<shard::ShardMux> make_replica(detail::Replicas& into, std::size_t at,
                                                NodeId id,
                                                const multishot::MultishotConfig& node_cfg) const;
};

}  // namespace tbft
