#include "tetrabft.hpp"

#include <filesystem>
#include <string>
#include <utility>

namespace tbft {

// ---- detail::CommitHub -----------------------------------------------------

void detail::CommitHub::on_commit(const runtime::Commit& commit) {
  {
    std::lock_guard<std::mutex> lk(mx);
    for (const auto& cb : callbacks) cb(commit);
  }
  cv.notify_all();
}

bool detail::CommitHub::wait_for(const std::function<bool()>& pred,
                                 runtime::Duration timeout) {
  std::unique_lock<std::mutex> lk(mx);
  return cv.wait_for(lk, std::chrono::microseconds(timeout), [&] { return pred(); });
}

// ---- detail::Replicas ------------------------------------------------------

multishot::MultishotNode& detail::Replicas::instance(NodeId id, std::uint32_t shard) {
  if (running_) {
    throw std::logic_error(
        "tbft: direct replica access while running races the replica thread; "
        "stop() first or use submit()");
  }
  shard::ShardMux* mux = muxes_.at(id);
  if (mux == nullptr) {
    throw std::out_of_range("tbft: replica " + std::to_string(id) +
                            " is a stand-in or down and hosts no chain instance");
  }
  return mux->instance(shard);
}

std::vector<multishot::MultishotNode*> detail::Replicas::shard_instances(std::uint32_t shard) {
  std::vector<multishot::MultishotNode*> out;
  out.reserve(muxes_.size());
  for (NodeId i = 0; i < size(); ++i) {
    out.push_back(muxes_[i] != nullptr ? &instance(i, shard) : nullptr);
  }
  return out;
}

// ---- Cluster ---------------------------------------------------------------

Cluster::~Cluster() { stop(); }

void Cluster::on_commit(CommitCallback cb) {
  if (running_) throw std::logic_error("Cluster::on_commit: subscribe before start()");
  hub_.callbacks.push_back(std::move(cb));
}

void Cluster::start() {
  running_ = true;
  if (runner_) runner_->start();
  for (auto& host : hosts_) host->start();
}

void Cluster::stop() {
  if (!running_) return;
  if (runner_) runner_->stop();
  for (auto& host : hosts_) host->stop();
  running_ = false;
  // Replica threads are quiescent now: push any buffered WAL tail to disk so
  // an orderly shutdown loses nothing regardless of the flush cadence.
  for (auto& per_node : durables_) {
    for (auto& durable : per_node) durable->flush();
  }
}

bool Cluster::wait_for(const std::function<bool()>& pred, runtime::Duration timeout) {
  return hub_.wait_for(pred, timeout);
}

void Cluster::submit(NodeId id, std::vector<std::uint8_t> tx) {
  shard::ShardMux* mux = muxes_.at(id);
  const std::uint32_t shard = router_.route(tx);
  auto fn = [mux, shard, tx = std::move(tx)]() mutable {
    mux->submit(shard, std::move(tx));
  };
  if (runner_) {
    runner_->post(id, std::move(fn));
  } else {
    hosts_.at(id)->post(std::move(fn));
  }
}

runtime::LocalRunner& Cluster::runner() {
  if (!runner_) throw std::logic_error("Cluster::runner: a socket cluster has no LocalRunner");
  return *runner_;
}

// ---- SimCluster ------------------------------------------------------------

void SimCluster::crash(NodeId id) {
  if (muxes_.at(id) == nullptr) {
    throw std::logic_error("SimCluster::crash: replica " + std::to_string(id) +
                           " is a stand-in or already down");
  }
  sim_->crash_node(id);
  muxes_[id] = nullptr;
  durables_[id].clear();  // close WAL and checkpoint files, like process death
}

void SimCluster::restart(NodeId id) {
  if (muxes_.at(id) != nullptr || !sim_->is_crashed(id)) {
    throw std::logic_error("SimCluster::restart: replica " + std::to_string(id) +
                           " is not down");
  }
  sim_->restart_node(id, rebuild_(id));
}

bool SimCluster::run_until_all_finalized(Slot target, runtime::Duration deadline) {
  return sim_->run_until_pred(
      [this, target] {
        for (auto* mux : muxes_) {
          if (mux == nullptr) continue;
          for (std::uint32_t k = 0; k < shards(); ++k) {
            if (mux->instance(k).finalized_count() < target) return false;
          }
        }
        return true;
      },
      deadline);
}

// ---- ClusterBuilder --------------------------------------------------------

ClusterBuilder& ClusterBuilder::nodes(std::uint32_t n) {
  n_ = n;
  return *this;
}
ClusterBuilder& ClusterBuilder::faults(std::uint32_t f) {
  f_ = f;
  return *this;
}
ClusterBuilder& ClusterBuilder::shards(std::uint32_t s) {
  if (s == 0 || s > 1024) {
    throw std::invalid_argument("ClusterBuilder: shards must be in [1, 1024]");
  }
  shards_ = s;
  return *this;
}
ClusterBuilder& ClusterBuilder::seed(std::uint64_t seed) {
  seed_ = seed;
  return *this;
}
ClusterBuilder& ClusterBuilder::delta_bound(runtime::Duration delta) {
  if (delta <= 0) throw std::invalid_argument("ClusterBuilder: delta_bound must be > 0");
  delta_bound_ = delta;
  return *this;
}
ClusterBuilder& ClusterBuilder::batching(std::uint32_t max_txs, std::uint32_t max_bytes,
                                         runtime::Duration timeout) {
  if (max_txs == 0 || max_bytes == 0) {
    throw std::invalid_argument("ClusterBuilder: batching caps must be > 0");
  }
  max_batch_txs_ = max_txs;
  max_batch_bytes_ = max_bytes;
  batch_timeout_ = timeout;
  return *this;
}
ClusterBuilder& ClusterBuilder::pipelining(std::uint32_t depth) {
  if (depth == 0 || depth > 16) {
    throw std::invalid_argument(
        "ClusterBuilder: pipelining depth must be in [1, 16] (1 = off; deeper "
        "stripes outrun the finality depth without adding throughput)");
  }
  pipeline_depth_ = depth;
  return *this;
}
ClusterBuilder& ClusterBuilder::adaptive_batching(std::uint32_t max_txs) {
  adaptive_batch_txs_ = max_txs;
  return *this;
}
ClusterBuilder& ClusterBuilder::mempool(std::size_t capacity,
                                        multishot::MempoolPolicy policy) {
  if (capacity == 0) throw std::invalid_argument("ClusterBuilder: mempool capacity must be > 0");
  mempool_capacity_ = capacity;
  mempool_policy_ = policy;
  return *this;
}
ClusterBuilder& ClusterBuilder::storage_tail(std::size_t blocks) {
  if (blocks == 0) throw std::invalid_argument("ClusterBuilder: storage tail must be > 0");
  finalized_tail_ = blocks;
  return *this;
}
ClusterBuilder& ClusterBuilder::forwarding(bool on) {
  forward_to_leader_ = on;
  return *this;
}
ClusterBuilder& ClusterBuilder::sim_delta_actual(runtime::Duration delta) {
  if (delta <= 0) throw std::invalid_argument("ClusterBuilder: sim_delta_actual must be > 0");
  sim_delta_actual_ = delta;
  return *this;
}
ClusterBuilder& ClusterBuilder::sim_gst(runtime::Time t) {
  if (t < 0) throw std::invalid_argument("ClusterBuilder: sim_gst must be >= 0");
  sim_gst_ = t;
  return *this;
}
ClusterBuilder& ClusterBuilder::data_dir(std::string path) {
  if (path.empty()) {
    throw std::invalid_argument(
        "ClusterBuilder: data_dir must be a non-empty path (omit the call for "
        "an in-memory cluster)");
  }
  data_dir_ = std::move(path);
  return *this;
}
ClusterBuilder& ClusterBuilder::range_sync(bool on) {
  enable_sync_ = on;
  return *this;
}
ClusterBuilder& ClusterBuilder::commit_epochs(Slot slots) {
  commit_epoch_slots_ = slots;
  return *this;
}
ClusterBuilder& ClusterBuilder::checkpoint_every(Slot slots) {
  if (slots == 0) {
    throw std::invalid_argument("ClusterBuilder: checkpoint_every must be > 0 slots");
  }
  checkpoint_every_ = slots;
  return *this;
}
ClusterBuilder& ClusterBuilder::wal_flush_every(std::uint32_t records) {
  if (records == 0) {
    throw std::invalid_argument("ClusterBuilder: wal_flush_every must be > 0 records");
  }
  wal_flush_every_ = records;
  return *this;
}
ClusterBuilder& ClusterBuilder::wal_segment_bytes(std::size_t bytes) {
  if (bytes == 0) {
    throw std::invalid_argument("ClusterBuilder: wal_segment_bytes must be > 0");
  }
  wal_segment_bytes_ = bytes;
  return *this;
}

ClusterBuilder& ClusterBuilder::socket_backoff(runtime::Duration base,
                                               runtime::Duration cap, double jitter) {
  if (base <= 0 || cap < base) {
    throw std::invalid_argument("ClusterBuilder: socket_backoff needs 0 < base <= cap");
  }
  if (jitter < 0 || jitter > 1) {
    throw std::invalid_argument("ClusterBuilder: socket_backoff jitter must be in [0, 1]");
  }
  socket_backoff_base_ = base;
  socket_backoff_cap_ = cap;
  socket_backoff_jitter_ = jitter;
  return *this;
}
ClusterBuilder& ClusterBuilder::socket_liveness(runtime::Duration ping_after,
                                                runtime::Duration drop_after) {
  if (ping_after <= 0 || drop_after <= ping_after) {
    throw std::invalid_argument(
        "ClusterBuilder: socket_liveness needs 0 < ping_after < drop_after");
  }
  socket_ping_after_ = ping_after;
  socket_drop_after_ = drop_after;
  return *this;
}
ClusterBuilder& ClusterBuilder::socket_queue(std::size_t max_payloads) {
  if (max_payloads == 0) {
    throw std::invalid_argument("ClusterBuilder: socket_queue must be > 0");
  }
  socket_queue_ = max_payloads;
  return *this;
}
ClusterBuilder& ClusterBuilder::socket_max_frame(std::size_t bytes) {
  if (bytes < 4096) {
    throw std::invalid_argument(
        "ClusterBuilder: socket_max_frame below 4096 bytes cannot carry even a "
        "small block");
  }
  socket_max_frame_ = bytes;
  return *this;
}

multishot::MultishotConfig ClusterBuilder::node_config() const {
  const std::uint32_t f = f_.has_value() ? *f_ : (n_ > 0 ? (n_ - 1) / 3 : 0);
  // QuorumParams validates n > 3f (and n > 0) with a descriptive throw.
  (void)QuorumParams(n_, f);
  if (finalized_tail_ < 8) {
    throw std::logic_error(
        "ClusterBuilder: storage_tail(" + std::to_string(finalized_tail_) +
        ") is below the 8-block floor FinalizedStore needs to keep compaction "
        "behind the finalization frontier; raise storage_tail to at least 8");
  }
  if (enable_sync_ && finalized_tail_ < multishot::ChainStore::kWindow) {
    throw std::logic_error(
        "ClusterBuilder: storage_tail(" + std::to_string(finalized_tail_) +
        ") is smaller than the " + std::to_string(multishot::ChainStore::kWindow) +
        "-slot unfinalized window, so range-sync could compact away blocks a "
        "lagging peer still needs; raise storage_tail to at least " +
        std::to_string(multishot::ChainStore::kWindow) +
        " or disable it with range_sync(false)");
  }
  multishot::MultishotConfig cfg;
  cfg.n = n_;
  cfg.f = f;
  cfg.delta_bound = delta_bound_;
  cfg.max_slots = 0;  // production shape: unbounded chain, idle suppression
  cfg.max_batch_txs = max_batch_txs_;
  cfg.max_batch_bytes = max_batch_bytes_;
  cfg.batch_timeout = batch_timeout_;
  cfg.mempool_capacity = mempool_capacity_;
  cfg.mempool_policy = mempool_policy_;
  cfg.finalized_tail = finalized_tail_;
  cfg.forward_to_leader = forward_to_leader_;
  cfg.commit_epoch_slots = commit_epoch_slots_;
  cfg.enable_sync = enable_sync_;
  cfg.pipeline_depth = pipeline_depth_;
  if (adaptive_batch_txs_ > max_batch_txs_) {
    cfg.adaptive_batch_txs = adaptive_batch_txs_;
  }
  return cfg;
}

sim::NetworkConfig ClusterBuilder::sim_network() const {
  sim::NetworkConfig net;
  net.delta_bound = delta_bound_;
  net.delta_actual = sim_delta_actual_;
  net.delta_min = sim_delta_actual_;
  if (sim_gst_ > 0) {
    net.gst = sim_gst_;
    net.pre_gst_drop_prob = 0.0;
    net.pre_gst_delay_min = sim_delta_actual_;
    net.pre_gst_delay_max = sim_delta_actual_;
  }
  return net;
}

std::unique_ptr<shard::ShardMux> ClusterBuilder::make_replica(
    detail::Replicas& into, std::size_t at, NodeId id,
    const multishot::MultishotConfig& node_cfg) const {
  storage::DurableOptions opts;
  opts.segment_bytes = wal_segment_bytes_;
  opts.flush_every = wal_flush_every_;
  opts.checkpoint_every = checkpoint_every_;
  std::vector<std::unique_ptr<storage::DurableChain>> durables;
  std::vector<std::unique_ptr<multishot::MultishotNode>> instances;
  for (std::uint32_t k = 0; k < shards_; ++k) {
    auto node = std::make_unique<multishot::MultishotNode>(node_cfg);
    if (!data_dir_.empty()) {
      std::filesystem::path dir =
          std::filesystem::path(data_dir_) / ("node-" + std::to_string(id));
      if (shards_ > 1) dir /= "shard-" + std::to_string(k);
      auto durable = std::make_unique<storage::DurableChain>(dir, opts);
      storage::RecoveredState rec = durable->recover();
      if (rec.tip() > 0 || !rec.commit_state.empty()) {
        node->restore_chain(rec.checkpoint, rec.commit_state, std::move(rec.tail));
      }
      node->set_durable(durable.get());
      durables.push_back(std::move(durable));
    }
    instances.push_back(std::move(node));
  }
  auto mux = std::make_unique<shard::ShardMux>(std::move(instances));
  if (into.muxes_.size() <= at) {
    into.muxes_.resize(at + 1, nullptr);
    into.durables_.resize(at + 1);
  }
  into.muxes_[at] = mux.get();
  into.durables_[at] = std::move(durables);
  return mux;
}

std::unique_ptr<Cluster> ClusterBuilder::build_local() const {
  const multishot::MultishotConfig node_cfg = node_config();
  auto cluster = std::unique_ptr<Cluster>(new Cluster(shards_));
  cluster->runner_ = std::make_unique<runtime::LocalRunner>(runtime::LocalRunnerConfig{seed_});
  for (NodeId i = 0; i < node_cfg.n; ++i) {
    cluster->runner_->add_node(make_replica(*cluster, i, i, node_cfg));
  }
  cluster->runner_->add_commit_sink(cluster->hub_);
  return cluster;
}

runtime::SocketHostConfig ClusterBuilder::socket_host_config(
    NodeId id, net::Endpoint listen) const {
  // Validate against the largest proposal the node may actually emit: under
  // adaptive batching that is the scaled byte ceiling, not the base cap.
  const std::uint64_t max_proposal_bytes = node_config().adaptive_bytes_ceiling();
  if (socket_max_frame_ < max_proposal_bytes + 4096) {
    throw std::logic_error(
        "ClusterBuilder: socket_max_frame(" + std::to_string(socket_max_frame_) +
        ") leaves no headroom over the largest proposal payload (" +
        std::to_string(max_proposal_bytes) +
        " bytes); a full proposal would be dropped as oversize -- raise "
        "socket_max_frame or lower the batching/adaptive_batching caps");
  }
  runtime::SocketHostConfig hc;
  hc.id = id;
  hc.n = n_;
  hc.seed = seed_;
  hc.listen = std::move(listen);
  hc.backoff_base = socket_backoff_base_;
  hc.backoff_cap = socket_backoff_cap_;
  hc.backoff_jitter = socket_backoff_jitter_;
  hc.ping_after = socket_ping_after_;
  hc.drop_after = socket_drop_after_;
  hc.max_queue = socket_queue_;
  hc.max_frame_bytes = socket_max_frame_;
  return hc;
}

std::unique_ptr<Cluster> ClusterBuilder::build_socket() const {
  const multishot::MultishotConfig node_cfg = node_config();
  auto cluster = std::unique_ptr<Cluster>(new Cluster(shards_));
  auto& hosts = cluster->hosts_;
  for (NodeId i = 0; i < node_cfg.n; ++i) {
    // Ephemeral listen port: the host binds at construction, so the real
    // port is known immediately and nothing ever guesses a free one.
    hosts.push_back(std::make_unique<runtime::SocketHost>(
        socket_host_config(i, net::Endpoint{"127.0.0.1", 0}),
        make_replica(*cluster, i, i, node_cfg)));
  }
  for (NodeId i = 0; i < node_cfg.n; ++i) {
    hosts[i]->add_commit_sink(cluster->hub_);
    for (NodeId j = 0; j < node_cfg.n; ++j) {
      if (j != i) hosts[i]->set_peer_endpoint(j, net::Endpoint{"127.0.0.1", hosts[j]->port()});
    }
  }
  return cluster;
}

std::unique_ptr<SocketNode> ClusterBuilder::build_socket_node(
    NodeId id, net::Endpoint listen) const {
  const multishot::MultishotConfig node_cfg = node_config();
  if (id >= node_cfg.n) {
    throw std::invalid_argument("ClusterBuilder: build_socket_node id " +
                                std::to_string(id) + " out of range for n=" +
                                std::to_string(node_cfg.n));
  }
  auto sn = std::unique_ptr<SocketNode>(new SocketNode(shards_));
  Cluster& c = *sn;
  c.hosts_.push_back(std::make_unique<runtime::SocketHost>(
      socket_host_config(id, std::move(listen)), make_replica(c, 0, id, node_cfg)));
  c.hosts_.front()->add_commit_sink(c.hub_);
  return sn;
}

std::unique_ptr<SimCluster> ClusterBuilder::build_sim(const StandInFactory& stand_ins) const {
  const multishot::MultishotConfig node_cfg = node_config();
  auto cluster = std::unique_ptr<SimCluster>(new SimCluster(shards_));
  SimCluster& c = *cluster;
  sim::SimConfig sc;
  sc.seed = seed_;
  sc.net = sim_network();
  c.sim_ = std::make_unique<sim::Simulation>(sc);
  c.muxes_.assign(node_cfg.n, nullptr);
  c.durables_.resize(node_cfg.n);
  c.rebuild_ = [builder = *this, node_cfg, &c](NodeId id) {
    return builder.make_replica(c, id, id, node_cfg);
  };
  // The one SubmitPort: each submission reaches replica `id`'s current mux
  // (refused while it is a stand-in or down).
  struct ReplicaPort final : workload::SubmitPort {
    ReplicaPort(SimCluster& c, NodeId i) : cluster(&c), id(i) {}
    bool submit(std::vector<std::uint8_t> tx) override { return cluster->submit(id, std::move(tx)); }
    SimCluster* cluster;
    NodeId id;
  };
  for (NodeId i = 0; i < node_cfg.n; ++i) {
    c.ports_.push_back(std::make_unique<ReplicaPort>(c, i));
    std::unique_ptr<runtime::ProtocolNode> node = stand_ins ? stand_ins(i, node_cfg) : nullptr;
    c.sim_->add_node(node ? std::move(node) : make_replica(c, i, i, node_cfg));
  }
  return cluster;
}

}  // namespace tbft
