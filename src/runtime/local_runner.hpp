#pragma once
// LocalRunner: a real-time, in-process Host implementation of the runtime
// API (runtime/host.hpp). Each node runs on its own runtime::NodeLoop (one
// OS thread, a mutex+condvar mailbox, a timer wheel over the node's
// steady_clock-backed clock); mailboxes carry the same ref-counted Payloads
// the simulator moves (zero payload copies on an n-way broadcast). The
// identical ProtocolNode binaries the Simulation verifies -- MultishotNode,
// shard::ShardMux, TetraNode, the baselines -- run here unchanged, which is
// what makes wall-clock (not simulated) throughput measurable.
//
// Division of labor: the Simulation stays the verification tool of record
// (deterministic, adversarial, byte-identical traces); the LocalRunner is
// the performance and integration vehicle (real threads, real time, TSan).
//
// Threading model (the NodeLoop contract, runtime/node_loop.hpp):
//  - on_start / on_message / on_timer for one node are strictly serialized
//    on its loop thread;
//  - send/broadcast lock only the *destination* mailbox; payload buffers
//    are shared across recipients via Payload's atomic refcount;
//  - self-sends enqueue to the node's own mailbox (handlers never re-enter
//    each other), mirroring the simulator's scheduling semantics;
//  - commits fan out to the registered CommitSinks under one commit mutex,
//    so sinks observe a total order of commits across all nodes;
//  - metrics() and rng() are per-node, so node threads never contend.
//
// post() runs a functor on a node's thread, serialized with its handlers --
// the injection point for client traffic (MultishotNode::submit_tx is not
// thread-safe by design; it must run on the owning thread).

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/metrics.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "runtime/host.hpp"
#include "runtime/node_loop.hpp"

namespace tbft::runtime {

struct LocalRunnerConfig {
  /// Per-node Rngs are forked from this in NodeId order -- the same
  /// derivation the Simulation uses, so a node's random choices match
  /// across hosts.
  std::uint64_t seed{1};
};

class LocalRunner {
 public:
  explicit LocalRunner(LocalRunnerConfig cfg = {});
  ~LocalRunner();  // stops and joins if still running

  LocalRunner(const LocalRunner&) = delete;
  LocalRunner& operator=(const LocalRunner&) = delete;

  /// Nodes must be added before start() in NodeId order (id = index).
  NodeId add_node(std::unique_ptr<ProtocolNode> node);

  /// Skew `node`'s local clock: everything the node observes through its
  /// Host -- now(), timer expiry -- runs at `real + offset + drift * real`,
  /// a constant offset plus a slow linear drift (e.g. 1e-4 = 100 us/s, ppm
  /// scale in real deployments). The protocol's timeouts are all relative
  /// delays, so consensus must tolerate bounded skew; this knob is how the
  /// threaded runner proves it. Call after add_node, before start().
  /// `drift` must be > -1 (a clock that runs backwards is not a clock), and
  /// the observed clock is floored at 0: a negative offset delays the
  /// clock's start, it never reads before the node's boot.
  void set_clock_skew(NodeId node, Duration offset, double drift = 0.0);

  /// Subscribe to every commit any node publishes. Must be called before
  /// start(). Callbacks run on node threads, serialized by the runner's
  /// commit mutex.
  void add_commit_sink(CommitSink& sink);

  /// Spawn the node threads; each runs its node's on_start() first, then
  /// drains messages and timers until stop().
  void start();

  /// Ask every node thread to stop and join them. Idempotent; pending
  /// mailbox entries are discarded. After stop() the nodes are quiescent
  /// and may be inspected from the caller's thread.
  void stop();

  [[nodiscard]] bool running() const noexcept { return started_ && !stopped_; }
  [[nodiscard]] std::uint32_t node_count() const noexcept {
    return static_cast<std::uint32_t>(nodes_.size());
  }

  /// Run `fn` on `node`'s thread, serialized with its message/timer
  /// handlers (FIFO with deliveries). Before start(), `fn` runs inline on
  /// the caller -- no thread exists yet, which makes pre-start state
  /// seeding (e.g. mempool pre-loading) trivially safe.
  void post(NodeId node, std::function<void()> fn) { nodes_.at(node).loop.post(std::move(fn)); }

  /// Microseconds of steady_clock time since this runner was constructed.
  [[nodiscard]] Time now() const noexcept;

 private:
  /// One hosted node: its protocol object, its loop, and the Host view it
  /// is bound to. Lives in a deque (holds a mutex, never moves).
  class Node final : public Host {
   public:
    Node(LocalRunner& runner, NodeId id, std::unique_ptr<ProtocolNode> node, Rng rng);

    [[nodiscard]] NodeId id() const override { return id_; }
    [[nodiscard]] std::uint32_t n() const override { return runner_.node_count(); }
    /// The node's *skewed* clock: protocol code never sees the real time.
    [[nodiscard]] Time now() const override { return loop.now(); }
    void send(NodeId dst, Payload payload) override;
    void broadcast(Payload payload) override;
    TimerId set_timer(Duration delay) override { return loop.set_timer(delay); }
    void cancel_timer(TimerId id) override { loop.cancel_timer(id); }
    void publish_commit(std::uint64_t stream, Value value,
                        std::span<const std::uint8_t> payload) override;
    MetricsRegistry& metrics() override { return metrics_; }
    Rng& rng() override { return rng_; }

    std::unique_ptr<ProtocolNode> node;

   private:
    LocalRunner& runner_;
    NodeId id_;
    MetricsRegistry metrics_;
    Rng rng_;

   public:
    NodeLoop loop;  // last: its thread uses every member above
  };

  std::chrono::steady_clock::time_point epoch_;
  Rng root_rng_;
  std::deque<Node> nodes_;
  std::vector<CommitSink*> commit_sinks_;
  std::mutex commit_mx_;
  bool started_{false};
  bool stopped_{false};
};

}  // namespace tbft::runtime
