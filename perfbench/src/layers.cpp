#include "layers.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

#include "shard/router.hpp"

namespace perfbench {

namespace {
std::uint64_t counter(const tbft::MetricsRegistry& reg, const char* name) {
  const auto& cs = reg.counters();
  const auto it = cs.find(name);
  return it == cs.end() ? 0 : it->second.value();
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

double per(double num, std::uint64_t den) {
  return den == 0 ? 0 : num / static_cast<double>(den);
}

double q(std::vector<double> v, double p) { return quantile(v, p).value; }
}  // namespace

void LayerTally::absorb(TracedNode& node) {
  const TracedNode::Stats& s = node.stats();
  append(deliver_wait_us, s.deliver_wait_us);
  append(timer_late_us, s.timer_late_us);
  append(handler_us, s.handler_us);
  msgs_out += s.msgs_out;
  msgs_in += s.msgs_in;
  timers_set += s.timers_set;
  handler_ns += s.handler_ns;
  host_call_ns += s.host_call_ns;
  const tbft::MetricsRegistry& reg = node.registry();
  view_changes += counter(reg, "multishot.viewchange.sent");
  filtered_dup += counter(reg, "multishot.delivery.filtered_dup");
  forwarded += counter(reg, "multishot.forward.sent");
  if (const auto it = reg.histograms().find("multishot.batch.txs"); it != reg.histograms().end()) {
    batch_txs_sum += it->second.sum();
    batches += it->second.count();
  }
}

void Timeline::absorb(const tbft::multishot::MultishotNode& node) {
  const auto merge = [](auto& into, const auto& from) {
    for (const auto& [slot, at] : from) {
      auto [it, fresh] = into.try_emplace(slot, at);
      if (!fresh) it->second = std::min(it->second, at);
    }
  };
  merge(proposed, node.first_proposal_at());
  merge(notarized, node.notarized_at());
}

void stage_split(const std::vector<CommitLedger::Times>& times, const Timelines& timelines,
                 const std::vector<std::int64_t>& offset_ns, std::uint32_t f, LayerTally& out) {
  constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::min();
  std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> by_stream;
  const auto slot_times = [&](std::uint64_t stream) {
    auto [it, fresh] = by_stream.try_emplace(stream, kNone, kNone);
    if (!fresh) return it->second;
    const std::uint32_t shard = tbft::shard::stream_shard(stream);
    const tbft::Slot slot = tbft::shard::stream_slot(stream);
    if (shard >= timelines.size()) return it->second;
    std::int64_t proposed = kNone;
    std::vector<std::int64_t> notarized;
    for (std::size_t i = 0; i < timelines[shard].size(); ++i) {
      const Timeline& tl = timelines[shard][i];
      const std::int64_t off = i < offset_ns.size() ? offset_ns[i] : 0;
      if (const auto p = tl.proposed.find(slot); p != tl.proposed.end()) {
        const std::int64_t t = p->second * 1000 + off;
        proposed = proposed == kNone ? t : std::min(proposed, t);
      }
      if (const auto nz = tl.notarized.find(slot); nz != tl.notarized.end()) {
        notarized.push_back(nz->second * 1000 + off);
      }
    }
    if (proposed != kNone && notarized.size() > f) {
      std::nth_element(notarized.begin(), notarized.begin() + f, notarized.end());
      it->second = {proposed, notarized[f]};
    }
    return it->second;
  };
  for (const auto& t : times) {
    if (t.f1_at == kNotYet) continue;
    const auto [proposed, notarized] = slot_times(t.stream);
    if (proposed == kNone) continue;
    out.stage_queue_ms.push_back(static_cast<double>(proposed - t.scheduled) / 1e6);
    out.stage_notarize_ms.push_back(static_cast<double>(notarized - proposed) / 1e6);
    out.stage_finalize_ms.push_back(static_cast<double>(t.f1_at - notarized) / 1e6);
  }
}

void emit_layers(const LayerTally& t, RunResult& r) {
  const std::uint64_t tx = t.committed;
  r.add("workload.gen_late_p99_ms", q(t.gen_late_us, 0.99) / 1e3, "ms");
  r.add("workload.admit_ratio", per(static_cast<double>(t.admitted), t.attempted), "ratio");
  r.add("fail_ratio", per(static_cast<double>(t.failed), t.attempted), "ratio");
  // End-to-end latency and capacity, reported here because on the real-time
  // workloads their run-to-run spread on a shared machine exceeds any bound
  // an end-to-end metric may have (README.md, "Measured spread").
  r.add("commit_p50_ms", t.untraced_p50_ms, "ms");
  r.add("commit_p99_ms", t.untraced_p99_ms, "ms");
  r.add("capacity_tx_s", t.capacity_tx_s, "tx/s");

  r.add("runtime.submit_call_us_p50", q(t.submit_call_us, 0.5), "us");
  r.add("runtime.deliver_wait_us_p50", q(t.deliver_wait_us, 0.5), "us");
  r.add("runtime.deliver_wait_us_p99", q(t.deliver_wait_us, 0.99), "us");
  r.add("runtime.timer_late_us_p99", q(t.timer_late_us, 0.99), "us");
  r.add("runtime.sends_per_tx", per(static_cast<double>(t.msgs_out), tx), "count");
  r.add("runtime.timers_per_tx", per(static_cast<double>(t.timers_set), tx), "count");

  r.add("multishot.handler_self_us_per_tx",
        per(static_cast<double>(t.handler_ns - t.host_call_ns) / 1e3, tx), "us");
  r.add("multishot.handler_us_p99", q(t.handler_us, 0.99), "us");
  r.add("multishot.msgs_in_per_tx", per(static_cast<double>(t.msgs_in), tx), "count");
  r.add("multishot.batch_txs_mean", per(t.batch_txs_sum, t.batches), "count");
  r.add("multishot.view_changes", static_cast<double>(t.view_changes), "count");
  r.add("multishot.filtered_dup_ratio", per(static_cast<double>(t.filtered_dup), t.deliveries),
        "ratio");
  r.add("multishot.forwarded_ratio", per(static_cast<double>(t.forwarded), t.admitted), "ratio");
  r.add("multishot.stage_queue_ms", q(t.stage_queue_ms, 0.5), "ms");
  r.add("multishot.stage_notarize_ms", q(t.stage_notarize_ms, 0.5), "ms");
  r.add("multishot.stage_finalize_ms", q(t.stage_finalize_ms, 0.5), "ms");

  r.add("net.frames_per_tx", per(static_cast<double>(t.frames_tx), tx), "count");
  r.add("net.bytes_per_tx", per(static_cast<double>(t.bytes_tx), tx), "B");
  r.add("net.queue_dropped", static_cast<double>(t.queue_dropped), "count");
  r.add("net.conns_dropped", static_cast<double>(t.conns_dropped), "count");

  r.add("storage.appends_per_tx", per(static_cast<double>(t.appends), tx), "count");
  r.add("storage.disk_bytes_per_tx", per(static_cast<double>(t.disk_bytes), tx), "B");
  r.add("storage.checkpoints", static_cast<double>(t.checkpoints), "count");
  r.add("storage.recover_ms", t.recover_ms, "ms");
  r.add("storage.recovered_blocks", static_cast<double>(t.recovered_blocks), "count");

  double skew = 1;
  if (!t.f1_per_shard.empty()) {
    std::uint64_t sum = 0;
    std::uint64_t mx = 0;
    for (const auto c : t.f1_per_shard) {
      sum += c;
      mx = std::max(mx, c);
    }
    if (sum > 0) {
      skew = static_cast<double>(mx) * static_cast<double>(t.f1_per_shard.size()) /
             static_cast<double>(sum);
    }
  }
  r.add("shard.commit_skew", skew, "ratio");
  r.add("shard.misrouted", static_cast<double>(t.misrouted), "count");

  r.add("sim.msgs_per_tx", per(static_cast<double>(t.sim_msgs), tx), "count");
  r.add("sim.bytes_per_tx", per(static_cast<double>(t.sim_bytes), tx), "B");
  r.add("sim.self_us_per_tx",
        t.sim_wall_ns == 0 ? 0 : per(static_cast<double>(t.sim_wall_ns - t.handler_ns) / 1e3, tx),
        "us");

  r.add("trace.overhead_p50_ms", t.traced_p50_ms - t.untraced_p50_ms, "ms");
  r.add("trace.overhead_cpu_us_per_tx", t.traced_cpu_us_per_tx - t.untraced_cpu_us_per_tx, "us");
}

}  // namespace perfbench
