#include "runtime/local_runner.hpp"

#include <utility>

#include "common/assert.hpp"

namespace tbft::runtime {

// ---- Node ------------------------------------------------------------------

LocalRunner::Node::Node(LocalRunner& runner, NodeId id, std::unique_ptr<ProtocolNode> n,
                        Rng rng)
    : node(std::move(n)), runner_(runner), id_(id), rng_(rng), loop(runner.epoch_) {
  node->bind(*this);
}

void LocalRunner::Node::send(NodeId dst, Payload payload) {
  runner_.nodes_.at(dst).loop.deliver(id_, std::move(payload));
}

void LocalRunner::Node::broadcast(Payload payload) {
  // Every recipient shares the same ref-counted payload: the copies below
  // bump an atomic reference count, never the bytes.
  for (Node& dst : runner_.nodes_) dst.loop.deliver(id_, payload);
}

void LocalRunner::Node::publish_commit(std::uint64_t stream, Value value,
                                       std::span<const std::uint8_t> payload) {
  const Commit commit{id_, stream, value, payload, runner_.now()};
  std::lock_guard<std::mutex> lk(runner_.commit_mx_);
  for (CommitSink* sink : runner_.commit_sinks_) sink->on_commit(commit);
}

// ---- LocalRunner -----------------------------------------------------------

LocalRunner::LocalRunner(LocalRunnerConfig cfg)
    : epoch_(std::chrono::steady_clock::now()), root_rng_(cfg.seed) {}

LocalRunner::~LocalRunner() { stop(); }

Time LocalRunner::now() const noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void LocalRunner::set_clock_skew(NodeId node, Duration offset, double drift) {
  nodes_.at(node).loop.set_clock_skew(offset, drift);
}

NodeId LocalRunner::add_node(std::unique_ptr<ProtocolNode> node) {
  TBFT_ASSERT_MSG(!started_, "cannot add nodes after start()");
  const auto id = static_cast<NodeId>(nodes_.size());
  // Same per-node Rng derivation as the Simulation: fork in NodeId order.
  nodes_.emplace_back(*this, id, std::move(node), root_rng_.fork());
  return id;
}

void LocalRunner::add_commit_sink(CommitSink& sink) {
  TBFT_ASSERT_MSG(!started_, "register commit sinks before start()");
  commit_sinks_.push_back(&sink);
}

void LocalRunner::start() {
  TBFT_ASSERT_MSG(!started_, "start() called twice");
  started_ = true;
  for (Node& n : nodes_) n.loop.start(*n.node);
}

void LocalRunner::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  for (Node& n : nodes_) n.loop.stop();
}

}  // namespace tbft::runtime
