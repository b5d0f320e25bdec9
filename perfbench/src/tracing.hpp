#pragma once
// Tracing from outside the program: decorators around the public runtime
// interfaces, installed only in a workload's traced run.
//
//  - TracedNode is a runtime::ProtocolNode that wraps the node a host runs
//    (a MultishotNode or a ShardMux). It times every handler and hands the
//    wrapped node a Host of its own (the tap), which forwards every call to
//    the real host while timing it and counting sends and timers. The tap
//    also hands out a MetricsRegistry the benchmark can read after the run,
//    which is where the protocol's own counters land.
//  - TraceShared matches each delivery to its send by (src, dst, payload
//    digest), giving the wait from send/broadcast until the destination's
//    handler starts.
//
// Spans (name, start, end, parent, request id) are kept in memory per
// recording thread and written out once, after the run.

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.hpp"
#include "runtime/host.hpp"

namespace perfbench {

enum class SpanName : std::uint8_t {
  kStart,
  kMessage,
  kTimer,
  kSend,
  kBroadcast,
  kCommit,
  kSubmit,
};
const char* span_name(SpanName s);

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

struct Span {
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::uint64_t request{0};  ///< request tag where known, else 0
  std::uint32_t parent{kNoParent};
  std::int32_t node{-1};
  SpanName name{SpanName::kMessage};
};

/// One thread's span buffer (bounded: spans past kCap are counted, not kept).
class SpanLog {
 public:
  static constexpr std::size_t kCap = 1u << 20;

  std::uint32_t open(SpanName name, std::int32_t node, std::int64_t start_ns,
                     std::uint32_t parent = kNoParent, std::uint64_t request = 0) {
    if (spans_.size() >= kCap) {
      ++dropped_;
      return kNoParent;
    }
    spans_.push_back(Span{start_ns, start_ns, request, parent, node, name});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void close(std::uint32_t idx, std::int64_t end_ns) {
    if (idx != kNoParent) spans_[idx].end_ns = end_ns;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_{0};
};

[[nodiscard]] inline std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// State shared by every TracedNode of one cluster.
class TraceShared {
 public:
  /// `virtual_time`: delivery waits and timer lateness use the host's clock
  /// (the simulator's virtual time) instead of the wall clock.
  explicit TraceShared(bool virtual_time) : virtual_time_(virtual_time) {}

  [[nodiscard]] bool virtual_time() const noexcept { return virtual_time_; }
  void note_send(std::uint32_t src, std::uint32_t dst, std::uint64_t digest, std::int64_t at);
  /// Wait since the matching send, or -1 when none is pending.
  std::int64_t match_delivery(std::uint32_t src, std::uint32_t dst, std::uint64_t digest,
                              std::int64_t at);

 private:
  const bool virtual_time_;
  std::mutex mx_;
  std::unordered_map<std::uint64_t, std::deque<std::int64_t>> pending_;  // guarded by mx_
};

class TracedNode final : public tbft::runtime::ProtocolNode {
 public:
  TracedNode(std::unique_ptr<tbft::runtime::ProtocolNode> inner, TraceShared& shared,
             std::int32_t node_id);

  void on_start() override;
  void on_message(tbft::NodeId from, const tbft::Payload& payload) override;
  void on_timer(tbft::runtime::TimerId id) override;

  /// Per-node tallies. Read only while the host is not running this node.
  struct Stats {
    std::uint64_t msgs_in{0};
    std::uint64_t msgs_out{0};  ///< recipients: a broadcast counts n
    std::uint64_t timers_set{0};
    std::int64_t handler_ns{0};
    std::int64_t host_call_ns{0};
    std::vector<double> handler_us;
    std::vector<double> deliver_wait_us;
    std::vector<double> timer_late_us;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const SpanLog& spans() const noexcept { return spans_; }
  [[nodiscard]] tbft::MetricsRegistry& registry() noexcept { return tap_.registry; }
  /// Steady-clock ns minus host time (ns) at start: converts host times
  /// (timelines) to the wall clock. 0 under virtual time.
  [[nodiscard]] std::int64_t host_offset_ns() const noexcept { return host_offset_ns_; }

 private:
  /// The Host the wrapped node sees: forwards to the real host, timed.
  class Tap final : public tbft::runtime::Host {
   public:
    explicit Tap(TracedNode& owner) : owner_(owner) {}
    [[nodiscard]] tbft::NodeId id() const override { return owner_.ctx().id(); }
    [[nodiscard]] std::uint32_t n() const override { return owner_.ctx().n(); }
    [[nodiscard]] tbft::runtime::Time now() const override { return owner_.ctx().now(); }
    void send(tbft::NodeId dst, tbft::Payload payload) override;
    void broadcast(tbft::Payload payload) override;
    tbft::runtime::TimerId set_timer(tbft::runtime::Duration delay) override;
    void cancel_timer(tbft::runtime::TimerId id) override;
    void publish_commit(std::uint64_t stream, tbft::Value value,
                        std::span<const std::uint8_t> payload) override;
    tbft::MetricsRegistry& metrics() override { return registry; }
    tbft::Rng& rng() override { return owner_.ctx().rng(); }

    tbft::MetricsRegistry registry;

   private:
    TracedNode& owner_;
  };

  /// The clock delivery waits and timer lateness are measured on (ns).
  [[nodiscard]] std::int64_t event_clock() const;
  void begin_handler(SpanName name);
  void end_handler();

  std::unique_ptr<tbft::runtime::ProtocolNode> inner_;
  TraceShared& shared_;
  Tap tap_;
  std::int32_t node_id_;
  std::int64_t host_offset_ns_{0};
  std::unordered_map<tbft::runtime::TimerId, std::int64_t> timer_due_;
  Stats stats_;
  SpanLog spans_;
  std::uint32_t current_{kNoParent};
  std::int64_t handler_start_{0};
  std::int64_t handler_host_ns_{0};
};

/// Write every log's spans as CSV (log,index,name,node,start_ns,end_ns,
/// parent,request) to `path`, then one "# log <i> dropped <n>" line per log
/// that hit its cap. Returns false when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
