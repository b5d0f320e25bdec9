#pragma once
// The transport-neutral runtime API: the boundary between the consensus
// cores (core/, multishot/, baselines/) and whatever hosts them.
//
// A protocol implementation derives from ProtocolNode and interacts with
// the world exclusively through its Host: sends, broadcasts, timers, the
// clock, metrics, randomness, and commit publication. Nothing in this
// header knows about the discrete-event simulator -- the Simulation
// (sim/runtime.hpp) is just one Host implementation, the real-time
// threaded LocalRunner (runtime/local_runner.hpp) is another, and the TCP
// SocketHost (runtime/socket_host.hpp) is a third.
//
// Threading contract: a Host delivers on_start / on_message / on_timer for
// one node strictly serialized (never concurrently), so ProtocolNode
// subclasses need no internal locking. Different nodes may run on
// different threads (LocalRunner does exactly that); anything shared
// between nodes must be thread-safe -- which is why Payload's refcount and
// decode-cache publication are (common/payload.hpp), and why metrics() and
// rng() are per-node.
//
// Hot-path design (DESIGN_PERF.md): sends and broadcasts move ref-counted
// Payloads, so an n-way broadcast performs one encode and zero payload
// copies regardless of the host behind the interface.

#include <cstdint>
#include <span>

#include "common/metrics.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "runtime/time.hpp"

namespace tbft::runtime {

/// Handle for a one-shot timer. Ids are never 0, so 0 is a safe "no timer"
/// sentinel.
using TimerId = std::uint64_t;

/// One finalized decision as published through a Host. `stream` is 0 for
/// single-shot consensus and the slot for multi-shot; `payload` is the
/// committed block's payload bytes (empty for single-shot values), valid
/// only for the duration of the CommitSink callback.
struct Commit {
  NodeId node{0};  ///< The replica that finalized (the publisher).
  std::uint64_t stream{0};
  Value value{};
  std::span<const std::uint8_t> payload{};
  Time at{0};
};

/// Subscriber to the commits a host's nodes publish. Replaces the old
/// NodeContext::report_decision sink: hosts fan every published commit out
/// to their registered sinks (the Simulation additionally records a
/// DecisionRecord in its Trace).
///
/// Threading: a host may invoke on_commit from the publishing node's
/// thread. Hosts serialize sink invocations (the LocalRunner holds one
/// commit mutex across the fan-out), so a sink sees a total order of
/// commits but must not assume any particular thread.
class CommitSink {
 public:
  virtual ~CommitSink() = default;
  virtual void on_commit(const Commit& commit) = 0;
};

/// Services a node may use. Implemented by the Simulation (sim/runtime.hpp),
/// the LocalRunner (runtime/local_runner.hpp) and the SocketHost
/// (runtime/socket_host.hpp).
class Host {
 public:
  virtual ~Host() = default;

  [[nodiscard]] virtual NodeId id() const = 0;
  [[nodiscard]] virtual std::uint32_t n() const = 0;
  [[nodiscard]] virtual Time now() const = 0;

  /// Point-to-point send. Self-sends are delivered through the node's own
  /// queue (handlers never re-enter each other) and cost no network bytes.
  virtual void send(NodeId dst, Payload payload) = 0;

  /// Send to every node, including self (protocol pseudo-code counts a
  /// node's own broadcast toward its quorums). All n recipients share one
  /// ref-counted payload: one encode, zero buffer copies.
  virtual void broadcast(Payload payload) = 0;

  /// One-shot timer firing at now()+delay. Returns an id passed to on_timer.
  virtual TimerId set_timer(Duration delay) = 0;
  virtual void cancel_timer(TimerId id) = 0;

  /// Publish a decision (single-shot) or a finalization (multi-shot, keyed
  /// by stream = slot) to the host's subscribed CommitSinks. `payload` is
  /// borrowed for the duration of the call.
  virtual void publish_commit(std::uint64_t stream, Value value,
                              std::span<const std::uint8_t> payload = {}) = 0;

  /// Per-node metrics (protocol-specific counters). Hosts may back this
  /// with one registry per node (the LocalRunner does, so node threads
  /// never contend) or one per run (the single-threaded Simulation).
  virtual MetricsRegistry& metrics() = 0;

  /// Deterministic per-node randomness.
  virtual Rng& rng() = 0;
};

/// A protocol node. Entry points are serialized per node by the host; under
/// the Simulation they run to completion instantly in simulated time.
class ProtocolNode {
 public:
  virtual ~ProtocolNode() = default;

  /// Called once before any message/timer, after the context is bound.
  virtual void on_start() = 0;
  /// `from` is the authenticated channel identity of the sender. The payload
  /// is shared with every other recipient of the same broadcast; it may carry
  /// a sender-attached decode cache (Payload::cached) that by construction
  /// agrees with the bytes.
  virtual void on_message(NodeId from, const Payload& payload) = 0;
  virtual void on_timer(TimerId id) = 0;

  void bind(Host& ctx) noexcept { ctx_ = &ctx; }

 protected:
  [[nodiscard]] Host& ctx() const {
    return *ctx_;
  }

 private:
  Host* ctx_{nullptr};
};

}  // namespace tbft::runtime
