// The two real-time workloads: loopback-tcp and sharded-wal. The untraced
// run drives a ClusterBuilder-built cluster in a closed loop that keeps it
// saturated and measures CPU per committed request. The traced run measures
// f+1 commit latency at a reference rate below the knee with an open-loop,
// seeded Poisson generator on one thread, searches for capacity, then
// rebuilds the same configuration from ClusterBuilder::node_config() with
// TracedNode decorators installed.

#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>

#include "capacity.hpp"
#include "layers.hpp"
#include "sim.hpp"
#include "tetrabft.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using tbft::NodeId;
using tbft::multishot::MultishotNode;
using Chains = std::vector<std::vector<MultishotNode*>>;

namespace {

enum class Backend { kSocket, kSharded };

struct RtSpec {
  Backend backend{Backend::kSocket};
  std::uint32_t shards{1};
  bool wal{false};
  std::uint32_t request_bytes{64};
  /// Request client ids are drawn from [0, key_clients): the key space the
  /// shard router hashes (1 = one client, sequential tags).
  std::uint32_t key_clients{1};
  double ref_rate{1000};
  double cap_start{2000};
};

/// Capacity trials' p99 limit: well above the few-ms scheduling stalls of a
/// shared machine, so a trial fails on saturation, not on one stall.
constexpr double kP99LimitMs = 100;

RtSpec spec_for(const std::string& name) {
  RtSpec w;
  w.ref_rate = 3000;
  if (name == "loopback-tcp") {
    w.cap_start = 60000;
  } else {  // sharded-wal
    w.backend = Backend::kSharded;
    w.shards = 4;
    w.wal = true;
    w.request_bytes = 320;
    w.key_clients = 1u << 20;
    w.cap_start = 40000;
  }
  return w;
}

tbft::ClusterBuilder builder_for(const RtSpec& w, std::uint64_t seed, const fs::path& data) {
  tbft::ClusterBuilder b;
  // Δ = 10 ms, as in sim-churn: loopback needs no more, and it keeps the
  // sim twin's view changes and range-sync retries short and steady.
  b.nodes(4).seed(seed).shards(w.shards).delta_bound(10 * tbft::runtime::kMillisecond);
  if (w.wal) b.data_dir(data.string());
  return b;
}

// ---- Cluster targets -------------------------------------------------------

/// What the generator and the verdict need from a running cluster.
class Target {
 public:
  virtual ~Target() = default;
  virtual void start() = 0;
  virtual void stop() = 0;  ///< idempotent
  virtual void submit(NodeId replica, std::vector<std::uint8_t> tx) = 0;
  /// Per shard, every replica's chain instance. Only after stop().
  virtual Chains chains() = 0;
};

/// The untraced clusters: the facade exactly as a user builds it.
template <class Cluster>
class FacadeTarget final : public Target {
 public:
  FacadeTarget(std::unique_ptr<Cluster> c, CommitLedger& ledger, std::uint32_t shards)
      : c_(std::move(c)), shards_(shards) {
    c_->on_commit([&ledger](const tbft::runtime::Commit& commit) {
      ledger.deliver(commit.node, commit.stream, commit.payload, steady_ns());
    });
  }
  void start() override { c_->start(); }
  void stop() override { c_->stop(); }
  void submit(NodeId replica, std::vector<std::uint8_t> tx) override {
    if constexpr (std::is_same_v<Cluster, tbft::SocketCluster>) {
      c_->submit(replica, std::move(tx));
    } else {
      c_->node(replica).submit(std::move(tx));
    }
  }
  Chains chains() override {
    Chains out(shards_);
    for (std::uint32_t k = 0; k < shards_; ++k) {
      if constexpr (std::is_same_v<Cluster, tbft::ShardedCluster>) {
        out[k] = c_->shard_instances(k);
      } else {
        for (NodeId i = 0; i < c_->size(); ++i) out[k].push_back(&c_->replica(i));
      }
    }
    return out;
  }

 private:
  std::unique_ptr<Cluster> c_;
  std::uint32_t shards_;
};

std::unique_ptr<Target> make_facade(const RtSpec& w, std::uint64_t seed, const fs::path& data,
                                    CommitLedger& ledger) {
  const tbft::ClusterBuilder b = builder_for(w, seed, data);
  if (w.backend == Backend::kSocket) {
    return std::make_unique<FacadeTarget<tbft::SocketCluster>>(b.build_socket(), ledger, 1);
  }
  return std::make_unique<FacadeTarget<tbft::ShardedCluster>>(b.build_sharded_local(), ledger,
                                                              w.shards);
}

/// Forwards commits from any host to the ledger (sinks may run concurrently
/// on socket hosts; the ledger locks).
struct LedgerSink final : tbft::runtime::CommitSink {
  explicit LedgerSink(CommitLedger& l) : ledger(l) {}
  void on_commit(const tbft::runtime::Commit& c) override {
    ledger.deliver(c.node, c.stream, c.payload, steady_ns());
  }
  CommitLedger& ledger;
};

/// The traced clusters: the same node_config(), each replica's node wrapped
/// in a TracedNode, hosted by a LocalRunner or by SocketHosts directly.
class TracedTarget final : public Target {
 public:
  TracedTarget(const RtSpec& w, const tbft::ClusterBuilder& b, std::uint64_t seed,
               const fs::path& data, CommitLedger& ledger)
      : w_(w), sink_(ledger), shared_(false), runner_(tbft::runtime::LocalRunnerConfig{seed}) {
    const tbft::multishot::MultishotConfig cfg = b.node_config();
    f_ = cfg.f;
    chains_.assign(w.shards, {});
    for (NodeId i = 0; i < cfg.n; ++i) {
      std::vector<std::unique_ptr<MultishotNode>> instances;
      for (std::uint32_t k = 0; k < w.shards; ++k) {
        auto node = std::make_unique<MultishotNode>(cfg);
        node->set_record_timeline(true);
        if (w.wal) {
          const fs::path dir = data / ("node-" + std::to_string(i)) / ("shard-" + std::to_string(k));
          fs::create_directories(dir);
          durables_.push_back(std::make_unique<tbft::storage::DurableChain>(dir));
          (void)durables_.back()->recover();  // fresh directory: genesis
          node->set_durable(durables_.back().get());
        }
        chains_[k].push_back(node.get());
        instances.push_back(std::move(node));
      }
      std::unique_ptr<tbft::runtime::ProtocolNode> inner;
      if (w.shards == 1) {
        inner = std::move(instances.front());
      } else {
        auto mux = std::make_unique<tbft::shard::ShardMux>(std::move(instances));
        muxes_.push_back(mux.get());
        inner = std::move(mux);
      }
      auto traced = std::make_unique<TracedNode>(std::move(inner), shared_, static_cast<int>(i));
      traced_.push_back(traced.get());
      if (w.backend == Backend::kSocket) {
        tbft::runtime::SocketHostConfig hc;
        hc.id = i;
        hc.n = cfg.n;
        hc.seed = seed;
        hc.listen = tbft::net::Endpoint{"127.0.0.1", 0};
        hosts_.push_back(std::make_unique<tbft::runtime::SocketHost>(hc, std::move(traced)));
      } else {
        runner_.add_node(std::move(traced));
      }
    }
    if (w.backend == Backend::kSocket) {
      for (NodeId i = 0; i < cfg.n; ++i) {
        hosts_[i]->add_commit_sink(sink_);
        for (NodeId j = 0; j < cfg.n; ++j) {
          if (j != i) hosts_[i]->set_peer_endpoint(j, {"127.0.0.1", hosts_[j]->port()});
        }
      }
    } else {
      runner_.add_commit_sink(sink_);
    }
  }
  ~TracedTarget() override { stop(); }

  void start() override {
    for (auto& h : hosts_) h->start();
    if (hosts_.empty()) runner_.start();
  }
  void stop() override {
    if (!hosts_.empty() && !net_snapshot_) {
      // Snapshot before stopping: hosts stopping one by one see their
      // peers' connections drop, which is shutdown, not load.
      net_snapshot_ = true;
      for (const auto& h : hosts_) {
        const auto& ns = h->net_stats();
        frames_tx_ += ns.frames_tx.load();
        bytes_tx_ += ns.bytes_tx.load();
        queue_dropped_ += ns.queue_dropped.load();
        conns_dropped_ += ns.conns_dropped.load();
      }
    }
    for (auto& h : hosts_) h->stop();
    runner_.stop();
    for (auto& d : durables_) d->flush();
  }
  void submit(NodeId replica, std::vector<std::uint8_t> tx) override {
    auto fn = [this, replica, tx = std::move(tx)]() mutable {
      bool ok = false;
      if (muxes_.empty()) {
        ok = chains_[0][replica]->submit_tx(std::move(tx));
      } else {
        const auto tag = tbft::workload::parse_request_tag(tx);
        ok = muxes_[replica]->submit(tag ? router_.shard_of(*tag) : 0, std::move(tx));
      }
      if (ok) admitted_.fetch_add(1, std::memory_order_relaxed);
    };
    if (hosts_.empty()) {
      runner_.post(replica, std::move(fn));
    } else {
      hosts_[replica]->post(std::move(fn));
    }
  }
  Chains chains() override { return chains_; }

  /// Fold every layer's tallies in (after stop()).
  void tally(LayerTally& t, const std::vector<CommitLedger::Times>& window) {
    std::vector<std::int64_t> offsets;
    for (auto* n : traced_) {
      t.absorb(*n);
      offsets.push_back(n->host_offset_ns());
    }
    t.admitted += admitted_.load();
    t.frames_tx += frames_tx_;
    t.bytes_tx += bytes_tx_;
    t.queue_dropped += queue_dropped_;
    t.conns_dropped += conns_dropped_;
    for (const auto& d : durables_) {
      t.appends += d->wal_stats().appended;
      t.checkpoints += d->checkpoints_stored();
    }
    Timelines timelines(chains_.size());
    for (std::size_t k = 0; k < chains_.size(); ++k) {
      for (const auto* node : chains_[k]) timelines[k].emplace_back().absorb(*node);
    }
    stage_split(window, timelines, offsets, f_, t);
  }
  [[nodiscard]] std::vector<const SpanLog*> span_logs() const {
    std::vector<const SpanLog*> out;
    for (auto* n : traced_) out.push_back(&n->spans());
    return out;
  }

 private:
  const RtSpec& w_;
  std::uint32_t f_{0};
  LedgerSink sink_;
  TraceShared shared_;
  tbft::shard::ShardRouter router_{w_.shards};
  std::vector<std::unique_ptr<tbft::storage::DurableChain>> durables_;
  Chains chains_;
  std::vector<tbft::shard::ShardMux*> muxes_;
  std::vector<TracedNode*> traced_;
  std::atomic<std::uint64_t> admitted_{0};
  bool net_snapshot_{false};
  std::uint64_t frames_tx_{0};
  std::uint64_t bytes_tx_{0};
  std::uint64_t queue_dropped_{0};
  std::uint64_t conns_dropped_{0};
  // Hosts last: their threads use everything above.
  std::vector<std::unique_ptr<tbft::runtime::SocketHost>> hosts_;
  tbft::runtime::LocalRunner runner_;
};

// ---- Open-loop generator ---------------------------------------------------

struct Phase {
  std::uint32_t first{0};
  std::uint32_t last{0};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::vector<double> late_us;
  std::vector<double> call_us;
  SpanLog spans;  ///< one submit span per request when calls are timed
  std::int64_t gen_cpu_ns{0};
};

/// Offer `rate` req/s for `seconds` from one generator thread. The arrival
/// schedule and the request keys come from `rng` alone; every request is
/// registered in the ledger at its scheduled time before it is sent.
Phase run_phase(Target& target, CommitLedger& ledger, const RtSpec& w, tbft::Rng& rng,
                double rate, double seconds, std::uint32_t& next_seq, bool time_calls) {
  Phase ph;
  std::vector<std::int64_t> offset;
  std::vector<std::uint32_t> client;
  const double mean_ns = 1e9 / rate;
  const auto span_ns = static_cast<std::int64_t>(seconds * 1e9);
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.uniform01()) * mean_ns;
    if (t >= static_cast<double>(span_ns)) break;
    offset.push_back(static_cast<std::int64_t>(t));
    client.push_back(w.key_clients <= 1
                         ? 1u
                         : static_cast<std::uint32_t>(rng.uniform(0, w.key_clients - 1)));
  }
  std::vector<std::uint64_t> tags(offset.size());
  for (std::size_t i = 0; i < offset.size(); ++i) {
    tags[i] = tbft::workload::request_tag(client[i], next_seq + static_cast<std::uint32_t>(i));
  }
  // Register first, then fix the start: registration must not eat into the
  // schedule.
  ph.first = static_cast<std::uint32_t>(ledger.totals().requests);
  for (std::size_t i = 0; i < offset.size(); ++i) ledger.add(tags[i], 0, w.request_bytes);
  ph.last = ph.first + static_cast<std::uint32_t>(offset.size());
  ph.start_ns = steady_ns() + 2'000'000;
  ph.end_ns = ph.start_ns + span_ns;
  for (auto& o : offset) o += ph.start_ns;
  ledger.rebase(ph.first, offset);
  ph.late_us.resize(offset.size());
  if (time_calls) ph.call_us.resize(offset.size());
  const std::uint32_t n = ledger.n();
  const std::uint32_t seq0 = next_seq;
  std::thread gen([&] {
    const std::int64_t cpu0 = thread_cpu_ns();
    for (std::size_t i = 0; i < offset.size(); ++i) {
      std::int64_t now = steady_ns();
      if (offset[i] > now) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(offset[i])));
        now = steady_ns();
      }
      ph.late_us[i] = static_cast<double>(now - offset[i]) / 1e3;
      auto tx = tbft::workload::encode_request(client[i], seq0 + static_cast<std::uint32_t>(i),
                                               w.request_bytes);
      if (time_calls) {
        const std::int64_t t0 = steady_ns();
        target.submit(static_cast<NodeId>(i % n), std::move(tx));
        const std::int64_t t1 = steady_ns();
        ph.call_us[i] = static_cast<double>(t1 - t0) / 1e3;
        ph.spans.close(ph.spans.open(SpanName::kSubmit, static_cast<int>(i % n), t0, kNoParent,
                                     tags[i]),
                       t1);
      } else {
        target.submit(static_cast<NodeId>(i % n), std::move(tx));
      }
    }
    ph.gen_cpu_ns = thread_cpu_ns() - cpu0;
  });
  gen.join();
  next_seq += static_cast<std::uint32_t>(offset.size());
  return ph;
}

/// One saturated round of an untraced run: a closed loop that keeps
/// `outstanding` requests submitted but not yet f+1-committed, so every
/// batch closes full and the work per request does not depend on timing.
/// Figures are sampled per interval.
struct Saturation {
  std::vector<double> tx_s;           ///< committed per second, per interval
  std::vector<double> cpu_us_per_tx;  ///< process CPU minus the generator's, per commit
  double rss_mb{0};                   ///< peak RSS once `rss_at` requests were sent
};

/// Run the closed loop from one generator thread until `seconds` pass or
/// `max_requests` were sent (but not before `min_intervals` intervals),
/// sampling every `interval_s`. Request keys come from `rng` alone.
Saturation run_saturated(Target& target, CommitLedger& ledger, const RtSpec& w, tbft::Rng& rng,
                         double seconds, std::uint64_t max_requests, std::size_t min_intervals,
                         double interval_s, std::uint32_t outstanding, std::uint64_t rss_at,
                         std::uint32_t& next_seq) {
  Saturation sat;
  const std::uint32_t n = ledger.n();
  std::thread gen([&] {
    const std::int64_t t0 = steady_ns();
    const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
    const auto interval_ns = static_cast<std::int64_t>(interval_s * 1e9);
    const std::uint64_t f1_start = ledger.f1_count();
    std::uint64_t sent = 0;
    const auto more = [&] { return sent < max_requests || sat.tx_s.size() < min_intervals; };
    std::int64_t next_sample = t0 + interval_ns;
    std::int64_t at_prev = t0;
    std::uint64_t f1_prev = f1_start;
    std::int64_t cpu_prev = process_cpu_ns() - thread_cpu_ns();
    for (std::int64_t now = t0; now < end && more(); now = steady_ns()) {
      if (now >= next_sample) {
        const std::uint64_t f1 = ledger.f1_count();
        const std::int64_t cpu = process_cpu_ns() - thread_cpu_ns();
        sat.tx_s.push_back(static_cast<double>(f1 - f1_prev) * 1e9 /
                           static_cast<double>(now - at_prev));
        if (f1 > f1_prev) {
          sat.cpu_us_per_tx.push_back(static_cast<double>(cpu - cpu_prev) / 1e3 /
                                      static_cast<double>(f1 - f1_prev));
        }
        at_prev = now;
        f1_prev = f1;
        cpu_prev = cpu;
        next_sample += interval_ns;
      }
      const std::uint64_t open = sent - (ledger.f1_count() - f1_start);
      if (open >= outstanding) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      for (std::uint64_t k = open; k < outstanding && more(); ++k) {
        const std::uint32_t client =
            w.key_clients <= 1 ? 1u
                               : static_cast<std::uint32_t>(rng.uniform(0, w.key_clients - 1));
        const std::uint32_t seq = next_seq++;
        ledger.add(tbft::workload::request_tag(client, seq), steady_ns(), w.request_bytes);
        target.submit(static_cast<NodeId>(sent % n),
                      tbft::workload::encode_request(client, seq, w.request_bytes));
        if (++sent == rss_at) sat.rss_mb = peak_rss_mb();
      }
    }
  });
  gen.join();
  return sat;
}

void sleep_ms(int ms) { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); }

/// Wait until every request of `ph` reached f+1, or commits stop arriving
/// for `quiet_ms`, or `cap_s` passes. Returns whether all committed.
bool drain(const CommitLedger& ledger, const Phase& ph, int quiet_ms, double cap_s) {
  const std::int64_t deadline = steady_ns() + static_cast<std::int64_t>(cap_s * 1e9);
  std::uint64_t last = ledger.totals().f1;
  std::int64_t last_change = steady_ns();
  while (steady_ns() < deadline) {
    if (ledger.all_committed(ph.first, ph.last)) return true;
    sleep_ms(5);
    const std::uint64_t f1 = ledger.totals().f1;
    if (f1 != last) {
      last = f1;
      last_change = steady_ns();
    } else if (steady_ns() - last_change > static_cast<std::int64_t>(quiet_ms) * 1'000'000) {
      break;
    }
  }
  return ledger.all_committed(ph.first, ph.last);
}

/// Requests f+1-committed inside [from, to].
std::uint64_t committed_between(const CommitLedger& ledger, std::int64_t from, std::int64_t to) {
  const auto all = ledger.times(0, static_cast<std::uint32_t>(ledger.totals().requests));
  std::uint64_t c = 0;
  for (const auto& t : all) {
    if (t.f1_at != kNotYet && t.f1_at >= from && t.f1_at <= to) ++c;
  }
  return c;
}

/// Correctness verdict after stop(): exactly once on every replica, no
/// foreign bytes, per-shard prefix consistency.
void verdict(Target& target, const CommitLedger& ledger, const char* what, RunResult& r) {
  const auto t = ledger.totals();
  const std::string w(what);
  if (t.duplicates > 0) r.violate(w + ": a replica delivered a request twice");
  if (t.foreign > 0) r.violate(w + ": foreign bytes committed");
  if (t.all != t.delivered_any) {
    r.violate(w + ": " + std::to_string(t.delivered_any - t.all) +
              " requests delivered by some replicas but not all");
  }
  for (const auto& shard_chains : target.chains()) {
    if (!tbft::multishot::chains_prefix_consistent(shard_chains)) {
      r.violate(w + ": chains not prefix-consistent");
    }
  }
}

/// Wait (bounded) until every request any replica delivered reached all.
void settle(const CommitLedger& ledger, double cap_s) {
  const std::int64_t deadline = steady_ns() + static_cast<std::int64_t>(cap_s * 1e9);
  while (steady_ns() < deadline) {
    const auto t = ledger.totals();
    if (t.all == t.delivered_any) return;
    sleep_ms(5);
  }
}

/// One set-up round: seconds from build to the first f+1 commit of one
/// warm-up request on a fresh cluster, or -1 when it never commits or its
/// verdict fails (reasons on stderr).
double setup_round(const RtSpec& w, const Options& opt, int k) {
  RunResult r;
  const fs::path data = opt.work_dir / ("setup-" + std::to_string(k));
  fs::remove_all(data);
  CommitLedger ledger(4, 1, w.shards);
  const std::uint64_t tag = tbft::workload::request_tag(0xFFFF0000u, static_cast<std::uint32_t>(k));
  ledger.add(tag, 0, w.request_bytes);
  // The commit wakes the waiting thread directly; polling would add its
  // sleep granularity to a set-up of a few ms.
  std::mutex mx;
  std::condition_variable cv;
  std::int64_t committed_at = 0;
  ledger.set_f1_listener([&](std::uint64_t) {
    const std::lock_guard<std::mutex> lk(mx);
    committed_at = steady_ns();
    cv.notify_one();
  });
  const std::int64_t t0 = steady_ns();
  double seconds = -1;
  {
    auto target = make_facade(w, opt.seed + static_cast<std::uint64_t>(k), data, ledger);
    target->start();
    target->submit(0, tbft::workload::encode_request(0xFFFF0000u, static_cast<std::uint32_t>(k),
                                                     w.request_bytes));
    {
      std::unique_lock<std::mutex> lk(mx);
      cv.wait_for(lk, std::chrono::seconds(10), [&] { return committed_at != 0; });
      seconds = static_cast<double>((committed_at != 0 ? committed_at : steady_ns()) - t0) / 1e9;
    }
    if (ledger.totals().f1 < 1) r.violate("setup: the warm-up request never committed");
    settle(ledger, 2);
    target->stop();
    verdict(*target, ledger, "setup", r);
  }
  fs::remove_all(data);
  for (const auto& v : r.violations) std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());
  return r.violations.empty() ? seconds : -1;
}

/// The workload's sim twin: its node_config() and shard count under the
/// shared churn scenario.
SimScenario twin_for(const RtSpec& w, std::uint64_t seed) {
  return churn_scenario(builder_for(w, seed, fs::path("unused")).node_config(), w.shards,
                        w.request_bytes, seed);
}

/// True when the generator kept to its schedule. Timer wake-up jitter of a
/// few ms is charged to latency (requests are timed from their schedule); a
/// generator this far behind is not offering the load it claims.
bool generator_on_time(const std::vector<double>& late_us, const char* what) {
  constexpr double kMaxLateMs = 10.0;
  std::vector<double> late = late_us;
  const Quantile q = quantile(late, 0.99);
  std::fprintf(stderr, "%s: generator late p50 %.3f p99 %.3f max %.3f ms\n", what,
               quantile(late, 0.5).value / 1e3, q.value / 1e3,
               late.empty() ? 0.0 : late.back() / 1e3);
  return q.value / 1e3 <= kMaxLateMs;
}

/// Reference measurements use short windows -- a quarter second, or long
/// enough for 1200 requests -- and report the median over windows.
/// Scheduler stalls of a few ms on a shared 4-core machine land in a
/// minority of short windows, so the median window's p99 is the system's
/// typical tail rather than a count of stalls.
int windows_for(double seconds, double rate) {
  const double window = std::max(0.25, 1200.0 / rate);
  return std::max(1, static_cast<int>(seconds / window));
}

/// The reference rate, offered as `windows` back-to-back measurement
/// windows; each window's p50, p99 and CPU per request are reported
/// separately so the run can report their medians.
struct Reference {
  std::vector<double> p50_ms;
  std::vector<double> p99_ms;
  std::vector<double> cpu_us_per_tx;
  std::vector<double> late_us;
  std::vector<double> call_us;
  std::vector<SpanLog> submit_spans;
  std::uint64_t offered{0};
  std::uint64_t committed{0};
  std::uint32_t first{0};
  std::uint32_t last{0};
};

Reference measure_reference(Target& target, CommitLedger& ledger, const RtSpec& w, tbft::Rng& rng,
                            std::uint32_t& seq, double seconds, int windows, bool time_calls,
                            const char* what, RunResult& r) {
  Reference ref;
  std::vector<Phase> phases;
  std::vector<std::int64_t> cpu;
  for (int k = 0; k < windows; ++k) {
    const std::int64_t cpu0 = process_cpu_ns();
    phases.push_back(run_phase(target, ledger, w, rng, w.ref_rate, seconds / windows, seq,
                               time_calls));
    cpu.push_back(process_cpu_ns() - cpu0 - phases.back().gen_cpu_ns);
  }
  drain(ledger, phases.back(), 1000, 5);
  ref.first = phases.front().first;
  ref.last = phases.back().last;
  for (std::size_t k = 0; k < phases.size(); ++k) {
    const Phase& ph = phases[k];
    const LatencySummary lat = summarize(ledger.times(ph.first, ph.last));
    if (!lat.p99.supported()) r.violate(std::string(what) + ": too few samples for p99");
    ref.offered += lat.offered;
    ref.committed += lat.committed;
    ref.p50_ms.push_back(lat.p50.value);
    ref.p99_ms.push_back(lat.p99.value);
    const std::uint64_t commits = committed_between(ledger, ph.start_ns, ph.end_ns);
    ref.cpu_us_per_tx.push_back(
        commits == 0 ? 0 : static_cast<double>(cpu[k]) / 1e3 / static_cast<double>(commits));
    ref.late_us.insert(ref.late_us.end(), ph.late_us.begin(), ph.late_us.end());
    ref.call_us.insert(ref.call_us.end(), ph.call_us.begin(), ph.call_us.end());
    if (time_calls) ref.submit_spans.push_back(ph.spans);
    std::fprintf(stderr, "%s %zu: %llu requests, p50 %.3f p99 %.3f ms, %.1f us CPU/tx\n", what, k,
                 static_cast<unsigned long long>(lat.offered), lat.p50.value, lat.p99.value,
                 ref.cpu_us_per_tx.back());
  }
  return ref;
}

/// measure_reference, but an attempt whose generator fell behind -- the
/// whole process was starved of CPU, and every figure with it -- is
/// discarded and measured again. A third such attempt makes the run invalid.
Reference reference_windows(Target& target, CommitLedger& ledger, const RtSpec& w,
                            tbft::Rng& rng, std::uint32_t& seq, double seconds, bool time_calls,
                            const char* what, RunResult& r) {
  constexpr int kAttempts = 3;
  for (int attempt = 1;; ++attempt) {
    Reference ref = measure_reference(target, ledger, w, rng, seq, seconds,
                                      windows_for(seconds, w.ref_rate), time_calls, what, r);
    if (generator_on_time(ref.late_us, what)) return ref;
    if (attempt == kAttempts) {
      r.violate(std::string(what) + ": the generator fell behind in " +
                std::to_string(kAttempts) + " attempts; the run is invalid");
      return ref;
    }
    std::fprintf(stderr, "%s: generator fell behind; measuring again\n", what);
  }
}


/// The untraced run's saturated rounds. Each round builds a fresh cluster,
/// warms it up, then keeps kOutstanding requests in flight -- enough that
/// every replica's batches close full (the count cap on loopback-tcp, the
/// byte budget on each of sharded-wal's shards) -- for at most kRoundRequests
/// requests. At least kSatRounds rounds run, more while half of --seconds
/// lasts. Replicas keep thousands of finalized blocks per chain in memory,
/// so the cap bounds the process's memory; fresh clusters make the rounds
/// independent samples.
constexpr int kSatRounds = 3;
constexpr int kMaxSatRounds = 12;
constexpr std::uint32_t kOutstanding = 2000;
constexpr std::uint64_t kRoundRequests = 100000;
/// Peak memory is read once the first round sent this many requests: a
/// fixed amount of work, whatever the machine's speed.
constexpr std::uint64_t kRssRequests = 50000;
/// Sampling interval, and the intervals at the start of a round (the loop
/// filling up) that are left out.
constexpr double kInterval = 0.1;
constexpr std::size_t kRampIntervals = 3;
/// Intervals a round measures at least, past its ramp.
constexpr std::size_t kMinIntervals = 5;

RunResult run_untraced(const RtSpec& w, const Options& opt) {
  RunResult r;
  const std::int64_t t_begin = steady_ns();
  const auto elapsed = [&] { return static_cast<double>(steady_ns() - t_begin) / 1e9; };
  // Set-up rounds in three groups: before the saturated rounds, after them,
  // and after the sim twin.
  SetupSamples setups(opt);
  const auto setup_group = [&] { setups.take(21); };
  setup_group();
  tbft::Rng rng(tbft::mix64(opt.seed ^ 0x5eedULL));
  std::vector<double> cpu;
  std::vector<double> tput;
  double rss_mb = 0;
  for (int round = 0;
       round < kMaxSatRounds && (round < kSatRounds || elapsed() < 0.5 * opt.seconds); ++round) {
    std::fprintf(stderr, "[%.1f s] saturated round %d\n", elapsed(), round);
    const fs::path data = opt.work_dir / ("main-" + std::to_string(round));
    fs::remove_all(data);
    CommitLedger ledger(4, 1, w.shards);
    auto target = make_facade(w, opt.seed + static_cast<std::uint64_t>(round), data, ledger);
    target->start();
    std::uint32_t seq = 0;
    const Phase warm = run_phase(*target, ledger, w, rng, w.ref_rate, 0.5, seq, false);
    drain(ledger, warm, 500, 3);
    const Saturation sat =
        run_saturated(*target, ledger, w, rng, 0.1 * opt.seconds, kRoundRequests,
                      kRampIntervals + kMinIntervals, kInterval, kOutstanding,
                      round == 0 ? kRssRequests : 0, seq);
    Phase all;
    all.last = static_cast<std::uint32_t>(ledger.totals().requests);
    if (!drain(ledger, all, 1000, 10)) r.violate("saturated round: requests never committed");
    settle(ledger, 5);
    target->stop();
    verdict(*target, ledger, "saturated round", r);
    target.reset();
    fs::remove_all(data);
    if (round == 0) rss_mb = sat.rss_mb > 0 ? sat.rss_mb : peak_rss_mb();
    if (sat.cpu_us_per_tx.size() <= kRampIntervals) {
      r.violate("saturated round: too few intervals");
      continue;
    }
    cpu.insert(cpu.end(), sat.cpu_us_per_tx.begin() + kRampIntervals, sat.cpu_us_per_tx.end());
    tput.insert(tput.end(), sat.tx_s.begin() + kRampIntervals, sat.tx_s.end());
    const auto totals = ledger.totals();
    r.attempted += totals.requests;
    r.failed += totals.requests - totals.f1;
  }
  std::fprintf(stderr, "saturated: %zu intervals, %.0f tx/s, %.2f us CPU/tx (medians)\n",
               cpu.size(), median(tput), median(cpu));
  setup_group();

  std::fprintf(stderr, "[%.1f s] sim twin\n", elapsed());
  const SimScenario twin = twin_for(w, opt.seed);
  const SimOutcome twin_outcome = run_sim(twin, opt.work_dir / "twin");
  setup_group();

  r.add("setup_s", setups.median(r), "s");
  r.add("cpu_us_per_tx", median(cpu), "us");
  r.add("rss_peak_mb", rss_mb, "MiB");
  add_churn_metrics({&twin}, {&twin_outcome}, r);
  std::fprintf(stderr, "[%.1f s] done\n", elapsed());
  return r;
}

/// The capacity search on a running cluster: open-loop trials at rising,
/// then bisected rates.
double search_capacity(Target& target, CommitLedger& ledger, const RtSpec& w, tbft::Rng& rng,
                       std::uint32_t& seq, const Options& opt) {
  CapacitySearch cs;
  cs.start = w.cap_start;
  cs.floor = w.ref_rate;
  cs.ceiling = 200000;
  cs.max_trials = 8;
  const double trial_s = std::max(0.5, 0.04 * opt.seconds);
  TrialLimits limits;
  limits.p99_ms = kP99LimitMs;
  const auto attempt = [&](double rate) {
    const Phase ph = run_phase(target, ledger, w, rng, rate, trial_s, seq, false);
    drain(ledger, ph, 300, 3);
    const TrialVerdict v =
        judge_trial(ledger.times(ph.first, ph.last), ph.start_ns, ph.end_ns, limits);
    std::fprintf(stderr, "  trial %.0f req/s: p99 %.2f ms goodput %.3f backlog %.3f -> %s\n",
                 rate, v.p99_ms, v.goodput, v.backlog_growth, v.pass ? "pass" : "fail");
    return v.pass;
  };
  // A rate fails only when two attempts in a row fail: one scheduling stall
  // on a shared machine must not decide capacity.
  return find_capacity(cs, [&](double rate) { return attempt(rate) || attempt(rate); }).capacity;
}

/// Warm-up plus the reference windows of a traced-or-untraced comparison.
Reference reference(Target& target, CommitLedger& ledger, const RtSpec& w, const Options& opt,
                    tbft::Rng& rng, std::uint32_t& seq, bool time_calls, const char* what,
                    RunResult& r) {
  const Phase warm = run_phase(target, ledger, w, rng, w.ref_rate,
                               std::max(0.5, 0.05 * opt.seconds), seq, false);
  drain(ledger, warm, 500, 3);
  const Reference ref =
      reference_windows(target, ledger, w, rng, seq, 0.2 * opt.seconds, time_calls, what, r);
  settle(ledger, 5);
  return ref;
}

RunResult run_traced(const RtSpec& w, const Options& opt) {
  RunResult r;
  LayerTally t;
  {
    const fs::path data = opt.work_dir / "untraced";
    fs::remove_all(data);
    CommitLedger ledger(4, 1, w.shards);
    auto target = make_facade(w, opt.seed, data, ledger);
    target->start();
    tbft::Rng rng(tbft::mix64(opt.seed ^ 0x5eedULL));
    std::uint32_t seq = 0;
    const Reference c = reference(*target, ledger, w, opt, rng, seq, false, "untraced window", r);
    std::fprintf(stderr, "capacity search\n");
    t.capacity_tx_s = search_capacity(*target, ledger, w, rng, seq, opt);
    if (t.capacity_tx_s <= 0) r.violate("capacity search: no rate passed");
    settle(ledger, 5);
    target->stop();
    verdict(*target, ledger, "untraced run", r);
    target.reset();
    fs::remove_all(data);
    t.untraced_p50_ms = median(c.p50_ms);
    t.untraced_p99_ms = median(c.p99_ms);
    t.untraced_cpu_us_per_tx = median(c.cpu_us_per_tx);
  }
  const fs::path data = opt.work_dir / "traced";
  fs::remove_all(data);
  CommitLedger ledger(4, 1, w.shards);
  const tbft::ClusterBuilder b = builder_for(w, opt.seed, data);
  auto target = std::make_unique<TracedTarget>(w, b, opt.seed, data, ledger);
  const std::uint64_t written0 = bytes_written();
  target->start();
  tbft::Rng rng(tbft::mix64(opt.seed ^ 0x5eedULL));
  std::uint32_t seq = 0;
  const Reference c = reference(*target, ledger, w, opt, rng, seq, true, "traced window", r);
  target->stop();
  verdict(*target, ledger, "traced run", r);
  const auto window = ledger.times(c.first, c.last);
  const auto totals = ledger.totals();
  t.traced_p50_ms = median(c.p50_ms);
  t.traced_cpu_us_per_tx = median(c.cpu_us_per_tx);
  t.gen_late_us = c.late_us;
  t.submit_call_us = c.call_us;
  t.attempted = totals.requests;
  t.committed = totals.f1;
  t.failed = totals.requests - totals.f1;
  t.deliveries = totals.f1 * ledger.n();
  t.misrouted = totals.misrouted;
  t.f1_per_shard = totals.f1_per_shard;
  target->tally(t, window);
  if (w.wal) t.disk_bytes = bytes_written() - written0;
  std::vector<const SpanLog*> logs = target->span_logs();
  for (const auto& l : c.submit_spans) logs.push_back(&l);
  if (!write_spans((opt.work_dir / "spans.csv").string(), logs)) {
    std::fprintf(stderr, "could not write the span file\n");
  }
  target.reset();
  if (w.wal) {
    // The storage read path: a timed recover() of replica 0's shard logs.
    for (std::uint32_t k = 0; k < w.shards; ++k) {
      tbft::storage::DurableChain d(data / "node-0" / ("shard-" + std::to_string(k)));
      const std::int64_t t0 = steady_ns();
      const auto rec = d.recover();
      t.recover_ms += static_cast<double>(steady_ns() - t0) / 1e6;
      t.recovered_blocks += rec.tip();
    }
  }
  fs::remove_all(data);
  r.attempted = c.offered;
  r.failed = c.offered - c.committed;
  emit_layers(t, r);
  return r;
}

}  // namespace

double realtime_setup_round(const Options& opt) {
  return setup_round(spec_for(opt.workload), opt, opt.setup_round);
}

RunResult run_realtime(const Options& opt) {
  const RtSpec w = spec_for(opt.workload);
  return opt.trace ? run_traced(w, opt) : run_untraced(w, opt);
}

}  // namespace perfbench
