#include "tracing.hpp"

#include <cstdio>

#include "common/hash.hpp"
#include "common/rng.hpp"

namespace perfbench {

const char* span_name(SpanName s) {
  switch (s) {
    case SpanName::kStart: return "on_start";
    case SpanName::kMessage: return "on_message";
    case SpanName::kTimer: return "on_timer";
    case SpanName::kSend: return "send";
    case SpanName::kBroadcast: return "broadcast";
    case SpanName::kCommit: return "publish_commit";
    case SpanName::kSubmit: return "submit";
  }
  return "?";
}

namespace {
std::uint64_t delivery_key(std::uint32_t src, std::uint32_t dst, std::uint64_t digest) {
  return tbft::mix64(digest ^ ((static_cast<std::uint64_t>(src) << 32) | dst));
}
}  // namespace

void TraceShared::note_send(std::uint32_t src, std::uint32_t dst, std::uint64_t digest,
                            std::int64_t at) {
  std::lock_guard<std::mutex> lk(mx_);
  pending_[delivery_key(src, dst, digest)].push_back(at);
}

std::int64_t TraceShared::match_delivery(std::uint32_t src, std::uint32_t dst,
                                         std::uint64_t digest, std::int64_t at) {
  std::lock_guard<std::mutex> lk(mx_);
  auto it = pending_.find(delivery_key(src, dst, digest));
  if (it == pending_.end() || it->second.empty()) return -1;
  const std::int64_t sent = it->second.front();
  it->second.pop_front();
  if (it->second.empty()) pending_.erase(it);
  return at - sent;
}

TracedNode::TracedNode(std::unique_ptr<tbft::runtime::ProtocolNode> inner,
                       TraceShared& shared, std::int32_t node_id)
    : inner_(std::move(inner)), shared_(shared), tap_(*this), node_id_(node_id) {
  inner_->bind(tap_);
}

std::int64_t TracedNode::event_clock() const {
  return shared_.virtual_time() ? ctx().now() * 1000 : steady_ns();
}

void TracedNode::begin_handler(SpanName name) {
  handler_start_ = steady_ns();
  handler_host_ns_ = 0;
  current_ = spans_.open(name, node_id_, handler_start_);
}

void TracedNode::end_handler() {
  const std::int64_t end = steady_ns();
  spans_.close(current_, end);
  current_ = kNoParent;
  const std::int64_t total = end - handler_start_;
  stats_.handler_ns += total;
  stats_.host_call_ns += handler_host_ns_;
  stats_.handler_us.push_back(static_cast<double>(total) / 1e3);
}

void TracedNode::on_start() {
  host_offset_ns_ = shared_.virtual_time() ? 0 : steady_ns() - ctx().now() * 1000;
  begin_handler(SpanName::kStart);
  inner_->on_start();
  end_handler();
}

void TracedNode::on_message(tbft::NodeId from, const tbft::Payload& payload) {
  ++stats_.msgs_in;
  const std::int64_t wait = shared_.match_delivery(
      from, ctx().id(), tbft::fnv1a64(payload.bytes()), event_clock());
  if (wait >= 0) stats_.deliver_wait_us.push_back(static_cast<double>(wait) / 1e3);
  begin_handler(SpanName::kMessage);
  inner_->on_message(from, payload);
  end_handler();
}

void TracedNode::on_timer(tbft::runtime::TimerId id) {
  if (auto it = timer_due_.find(id); it != timer_due_.end()) {
    stats_.timer_late_us.push_back(static_cast<double>(event_clock() - it->second) / 1e3);
    timer_due_.erase(it);
  }
  begin_handler(SpanName::kTimer);
  inner_->on_timer(id);
  end_handler();
}

void TracedNode::Tap::send(tbft::NodeId dst, tbft::Payload payload) {
  TracedNode& o = owner_;
  const std::int64_t t0 = steady_ns();
  const std::uint32_t span = o.spans_.open(SpanName::kSend, o.node_id_, t0, o.current_);
  o.shared_.note_send(o.ctx().id(), dst, tbft::fnv1a64(payload.bytes()), o.event_clock());
  ++o.stats_.msgs_out;
  o.ctx().send(dst, std::move(payload));
  const std::int64_t t1 = steady_ns();
  o.spans_.close(span, t1);
  o.handler_host_ns_ += t1 - t0;
}

void TracedNode::Tap::broadcast(tbft::Payload payload) {
  TracedNode& o = owner_;
  const std::int64_t t0 = steady_ns();
  const std::uint32_t span = o.spans_.open(SpanName::kBroadcast, o.node_id_, t0, o.current_);
  const std::uint64_t digest = tbft::fnv1a64(payload.bytes());
  const std::int64_t at = o.event_clock();
  const std::uint32_t n = o.ctx().n();
  for (std::uint32_t dst = 0; dst < n; ++dst) o.shared_.note_send(o.ctx().id(), dst, digest, at);
  o.stats_.msgs_out += n;
  o.ctx().broadcast(std::move(payload));
  const std::int64_t t1 = steady_ns();
  o.spans_.close(span, t1);
  o.handler_host_ns_ += t1 - t0;
}

tbft::runtime::TimerId TracedNode::Tap::set_timer(tbft::runtime::Duration delay) {
  TracedNode& o = owner_;
  const std::int64_t t0 = steady_ns();
  const tbft::runtime::TimerId id = o.ctx().set_timer(delay);
  o.timer_due_[id] = o.event_clock() + delay * 1000;
  ++o.stats_.timers_set;
  o.handler_host_ns_ += steady_ns() - t0;
  return id;
}

void TracedNode::Tap::cancel_timer(tbft::runtime::TimerId id) {
  TracedNode& o = owner_;
  const std::int64_t t0 = steady_ns();
  o.timer_due_.erase(id);
  o.ctx().cancel_timer(id);
  o.handler_host_ns_ += steady_ns() - t0;
}

void TracedNode::Tap::publish_commit(std::uint64_t stream, tbft::Value value,
                                     std::span<const std::uint8_t> payload) {
  TracedNode& o = owner_;
  const std::int64_t t0 = steady_ns();
  const std::uint32_t span = o.spans_.open(SpanName::kCommit, o.node_id_, t0, o.current_);
  o.ctx().publish_commit(stream, value, payload);
  const std::int64_t t1 = steady_ns();
  o.spans_.close(span, t1);
  o.handler_host_ns_ += t1 - t0;
}

bool write_spans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "log,index,name,node,start_ns,end_ns,parent,request\n");
  for (std::size_t l = 0; l < logs.size(); ++l) {
    const auto& spans = logs[l]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out, "%zu,%zu,%s,%d,%lld,%lld,%lld,%llu\n", l, i, span_name(s.name), s.node,
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                   s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
  }
  for (std::size_t l = 0; l < logs.size(); ++l) {
    if (logs[l]->dropped() > 0) {
      std::fprintf(out, "# log %zu dropped %llu\n", l,
                   static_cast<unsigned long long>(logs[l]->dropped()));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
