#pragma once
// SocketHost: a TCP-backed Host (runtime/host.hpp) -- one node of a
// TetraBFT cluster running as its own process (or its own pair of threads
// in-process), speaking the length-prefixed frame protocol of net/frame.hpp
// to n-1 peers named by a static cluster config.
//
// This is the third Host implementation after the Simulation and the
// LocalRunner, and the one that takes the identical ProtocolNode binaries
// out of shared memory: a kData frame's payload is exactly the serde bytes
// a Payload carries in-process, so the consensus cores cannot tell the
// transports apart (tests/test_socket_equivalence.cpp proves it).
//
// Threading model (two threads per host):
//  - the NODE thread is a runtime::NodeLoop -- the same mailbox + timer
//    wheel loop every LocalRunner node runs. metrics() and rng() are only
//    touched here.
//  - the IO thread owns every socket: a poll() loop over the listener, the
//    peer connections and a self-pipe that the node thread writes to when
//    it enqueues outbound payloads. Received data frames are adopted into
//    Payloads (route restored from a kRouted frame) and handed to the node
//    mailbox; outbound Payloads are popped from per-peer queues and written
//    as kData frames, or kRouted frames when they carry a nonzero route.
//  The two threads share only the mailbox, the outbound queues (one mutex
//  each) and the NetStats atomics -- never the MetricsRegistry (a std::map,
//  deliberately not thread-safe) and never the sockets.
//
// Connection management, from the static cluster config:
//  - deterministic topology: the HIGHER NodeId dials the lower, so every
//    unordered pair has exactly one TCP connection and simultaneous-dial
//    races cannot happen;
//  - both ends send a Hello frame (magic, wire version, claimed id, n);
//    data frames flow only after hellos complete in both directions, and a
//    hello that fails validation (bad magic/version/shape, an id out of
//    range, a dial from the wrong direction) drops the connection and
//    counts it -- junk floods from strangers never reach the node;
//  - a dropped connection re-dials with capped exponential backoff
//    (backoff_delay below); the attempt counter resets on a completed
//    handshake. The acceptor side just waits for the redial, and a fresh
//    hello for an already-connected peer replaces the old socket (the
//    peer restarted; the old fd is half-open garbage);
//  - half-open detection: after `ping_after` of rx silence the IO thread
//    sends a kPing; a peer silent for `drop_after` is dropped (TCP alone
//    can leave a dead peer's connection ESTABLISHED forever);
//  - outbound queues are bounded (`max_queue` payloads per peer): a slow
//    or dead peer costs dropped-and-counted payloads, never unbounded
//    memory. Queues persist across reconnects, and a frame partially
//    written when the connection died is requeued at the front -- the peer
//    cannot have seen a complete frame, so no duplicates and no silent
//    loss of the head-of-line message.
//
// Hot path: broadcast bumps the Payload refcount once per peer queue; the
// IO thread writes each frame with writev(header remainder, payload
// remainder) straight from the shared buffer. One encode, zero copies on
// the tx side, one adopted vector per frame on the rx side.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "runtime/host.hpp"
#include "runtime/node_loop.hpp"
#include "runtime/time.hpp"

namespace tbft::runtime {

struct SocketHostConfig {
  NodeId id{0};
  std::uint32_t n{0};
  /// Per-node Rng derivation matches the Simulation and the LocalRunner:
  /// the root Rng(seed) is forked id+1 times and the last fork is this
  /// node's -- so a node's random choices agree across all three hosts.
  std::uint64_t seed{1};

  /// Where this node listens. Port 0 binds an ephemeral port; the real
  /// port (port()) must then be distributed to peers before start().
  net::Endpoint listen{};
  /// Peer listen endpoints, indexed by NodeId (own entry ignored). May be
  /// patched after construction with set_peer_endpoint, before start().
  std::vector<net::Endpoint> peers;

  Duration backoff_base{10 * kMillisecond};  ///< first redial delay
  Duration backoff_cap{1 * kSecond};         ///< redial delay ceiling
  /// Fraction of each redial delay spread (seeded, uniform, mean-preserving)
  /// around the deterministic value: decorrelates reconnect storms when a
  /// restarted peer faces the whole cluster's dialers at once. 0 = none.
  double backoff_jitter{0.1};
  Duration ping_after{500 * kMillisecond};   ///< rx silence before a kPing
  Duration drop_after{2 * kSecond};          ///< rx silence before dropping
  std::size_t max_queue{4096};               ///< outbound payloads per peer
  std::size_t max_frame_bytes{1u << 20};     ///< rx frame payload limit
};

/// Transport counters, updated by both threads; readable from anywhere
/// (including tests and benches while the host runs). Kept separate from
/// the per-node MetricsRegistry, which is node-thread-only by contract.
struct NetStats {
  std::atomic<std::uint64_t> frames_tx{0};
  std::atomic<std::uint64_t> frames_rx{0};
  std::atomic<std::uint64_t> bytes_tx{0};
  std::atomic<std::uint64_t> bytes_rx{0};
  std::atomic<std::uint64_t> dials{0};            ///< connect attempts started
  std::atomic<std::uint64_t> accepts{0};          ///< connections accepted
  std::atomic<std::uint64_t> handshakes{0};       ///< hellos completed (both ways)
  std::atomic<std::uint64_t> conns_dropped{0};    ///< established conns lost
  std::atomic<std::uint64_t> queue_dropped{0};    ///< payloads dropped at full queues
  std::atomic<std::uint64_t> rejected_hello{0};   ///< invalid handshakes dropped
  std::atomic<std::uint64_t> rx_oversize{0};      ///< lying length prefixes (conn dropped)
  std::atomic<std::uint64_t> rx_unknown{0};       ///< unknown-kind frames skipped
  std::atomic<std::uint64_t> rx_truncated{0};     ///< partial frames at stream end
  std::atomic<std::uint64_t> rx_junk{0};          ///< protocol-order violations
};

/// The redial delay after `attempt` consecutive failures: base << attempt,
/// saturating at `cap`. Pure so the backoff policy is unit-testable.
[[nodiscard]] constexpr Duration backoff_delay(std::uint32_t attempt, Duration base,
                                               Duration cap) noexcept {
  if (base <= 0) return 0;
  for (std::uint32_t i = 0; i < attempt; ++i) {
    base <<= 1;
    if (base >= cap || base <= 0) return cap;
  }
  return base < cap ? base : cap;
}

/// backoff_delay with a mean-preserving uniform spread of `jitter_frac`
/// around it, drawn from `rng`: delay in [d - s/2, d + s/2] for
/// s = d * jitter_frac. Pure given the Rng state, so the jittered policy
/// stays unit-testable and a seeded run stays reproducible.
[[nodiscard]] Duration jittered_backoff(std::uint32_t attempt, Duration base, Duration cap,
                                        double jitter_frac, Rng& rng) noexcept;

class SocketHost final : public Host {
 public:
  /// Binds the listener immediately (so port() is known before start() and
  /// ephemeral ports can be exchanged), but dials nothing until start().
  /// Aborts on an unbindable listen endpoint.
  SocketHost(SocketHostConfig cfg, std::unique_ptr<ProtocolNode> node);
  ~SocketHost() override;  // stops and joins if still running

  SocketHost(const SocketHost&) = delete;
  SocketHost& operator=(const SocketHost&) = delete;

  /// The actually bound listen port (resolves ephemeral binds).
  [[nodiscard]] std::uint16_t port() const noexcept { return listen_port_; }

  /// Patch a peer's endpoint (ephemeral-port exchange). Before start() only.
  void set_peer_endpoint(NodeId peer, net::Endpoint ep);

  /// Subscribe to this node's commits. Before start() only; callbacks run
  /// on the node thread.
  void add_commit_sink(CommitSink& sink);

  /// Spawn the node thread (runs on_start, then drains mailbox + timers)
  /// and the IO thread (listens, dials, pumps frames).
  void start();

  /// Stop both threads and join them. Idempotent. After stop() the node is
  /// quiescent and may be inspected from the caller's thread.
  void stop();

  [[nodiscard]] bool running() const noexcept { return started_ && !stop_.load(); }

  /// Run `fn` on the node thread, serialized with its handlers (FIFO with
  /// deliveries). Before start() it runs inline on the caller -- the safe
  /// window for pre-start seeding (mempool pre-loads).
  void post(std::function<void()> fn) { loop_.post(std::move(fn)); }

  /// Direct node access: only from the node's own thread (via post) or
  /// while the host is not running.
  [[nodiscard]] ProtocolNode& protocol_node() { return *node_; }
  template <class T>
  [[nodiscard]] T& node_as() {
    return dynamic_cast<T&>(*node_);
  }

  [[nodiscard]] const NetStats& net_stats() const noexcept { return stats_; }

  // Host interface (node thread only, except id/n/now which are const).
  [[nodiscard]] NodeId id() const override { return cfg_.id; }
  [[nodiscard]] std::uint32_t n() const override { return cfg_.n; }
  [[nodiscard]] Time now() const override { return loop_.now(); }
  void send(NodeId dst, Payload payload) override;
  void broadcast(Payload payload) override;
  TimerId set_timer(Duration delay) override { return loop_.set_timer(delay); }
  void cancel_timer(TimerId id) override { loop_.cancel_timer(id); }
  void publish_commit(std::uint64_t stream, Value value,
                      std::span<const std::uint8_t> payload) override;
  MetricsRegistry& metrics() override { return metrics_; }
  Rng& rng() override { return rng_; }

 private:
  struct Conn;       // one TCP connection (defined in socket_host.cpp)
  struct PeerState;  // per-peer queue + redial bookkeeping

  // IO thread internals.
  void run_io();
  void io_wake() const noexcept;  // any thread: poke the poll loop
  void io_dial(NodeId peer);
  void io_accept_pending();
  void io_handle_readable(Conn& c);
  void io_handle_writable(Conn& c);
  void io_on_frame(Conn& c, net::FrameKind kind, std::vector<std::uint8_t>&& body);
  bool io_on_hello(Conn& c, std::vector<std::uint8_t>&& body);
  void io_drop_conn(Conn& c, bool established_loss);
  void io_check_liveness(Time now_us);
  [[nodiscard]] Time io_next_deadline(Time now_us) const;
  void io_queue_ctrl(Conn& c, net::FrameKind kind,
                     std::span<const std::uint8_t> payload = {});
  [[nodiscard]] bool io_wants_write(const Conn& c);

  SocketHostConfig cfg_;
  std::unique_ptr<ProtocolNode> node_;
  MetricsRegistry metrics_;
  Rng rng_{0};     // node-thread only (ProtocolNode::ctx().rng())
  Rng io_rng_{0};  // IO-thread only: backoff jitter; derived independently of
                   // rng_ so the node's stream matches the other transports
  NetStats stats_;

  net::Fd listener_;
  std::uint16_t listen_port_{0};
  net::Fd wake_rd_, wake_wr_;  // self-pipe: node thread -> poll loop

  // Outbound queues (shared: node thread producer, IO thread consumer).
  std::mutex out_mx_;
  std::vector<std::unique_ptr<PeerState>> peers_;  // indexed by NodeId

  std::vector<CommitSink*> commit_sinks_;
  std::mutex commit_mx_;

  // IO-thread-only connection state.
  std::vector<std::unique_ptr<Conn>> conns_;

  NodeLoop loop_;  // the node thread: mailbox + timers
  std::thread io_thread_;
  std::atomic<bool> stop_{false};
  bool started_{false};
  bool stopped_{false};
};

}  // namespace tbft::runtime
