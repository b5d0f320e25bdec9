#include "sim.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "shard/mux.hpp"
#include "shard/router.hpp"
#include "sim/runtime.hpp"
#include "storage/durable_chain.hpp"
#include "workload/generator.hpp"
#include "workload/request.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using tbft::NodeId;
namespace runtime = tbft::runtime;

namespace {

/// Generators report submissions here; the ledger registers each request
/// at its (virtual) send time and settles client retry books at f+1.
class LedgerTracker final : public tbft::workload::TrackerSink {
 public:
  LedgerTracker(CommitLedger& ledger, std::uint32_t bytes) : ledger_(ledger), bytes_(bytes) {
    ledger_.set_f1_listener([this](std::uint64_t tag) {
      const auto it = listeners_.find(tbft::workload::tag_client(tag));
      if (it != listeners_.end()) it->second(tag);
    });
  }
  void on_submitted(std::uint64_t tag, runtime::Time at, bool admitted) override {
    ledger_.add(tag, at * 1000, bytes_);
    if (!admitted) ++refused;
  }
  void on_retry(std::uint64_t, runtime::Time, bool) override {}
  void set_completion_listener(std::uint32_t client,
                               std::function<void(std::uint64_t)> listener) override {
    listeners_[client] = std::move(listener);
  }

  std::uint64_t refused{0};

 private:
  CommitLedger& ledger_;
  std::uint32_t bytes_;
  std::map<std::uint32_t, std::function<void(std::uint64_t)>> listeners_;
};

/// The simulated cluster: n replicas (a chain, or a ShardMux of S chains)
/// with a WAL each, commits feeding the ledger, and one submission port per
/// replica that fails over to the next live replica while its own is down
/// -- a client library retrying a refused connection.
class Rig final : public runtime::CommitSink {
 public:
  Rig(const SimScenario& s, fs::path dir, LayerTally* tally)
      : s_(s), dir_(std::move(dir)), tally_(tally), router_(s.shards),
        ledger_(s.cfg.n, s.cfg.f, s.shards), tracker_(ledger_, s.request_bytes),
        trace_(true) {
    fs::remove_all(dir_);
    tbft::sim::SimConfig sc;
    sc.seed = s.seed;
    sc.net.delta_bound = s.cfg.delta_bound;
    sc.net.model = tbft::sim::DelayModel::Uniform;
    sc.net.delta_min = s.delta * 9 / 10;
    sc.net.delta_actual = s.delta * 11 / 10;
    sc.keep_message_trace = false;
    sim_ = std::make_unique<tbft::sim::Simulation>(sc);
    replicas_.resize(s.cfg.n);
    durables_.resize(s.cfg.n);
    for (NodeId i = 0; i < s.cfg.n; ++i) {
      observer_.push_back(i);
      sim_->add_node(make_replica(i));
    }
    sim_->add_commit_sink(*this);
    for (NodeId i = 0; i < s.cfg.n; ++i) ports_.push_back(std::make_unique<Port>(*this, i));
  }

  void on_commit(const runtime::Commit& c) override {
    ledger_.deliver(observer_.at(c.node), c.stream, c.payload, c.at * 1000);
  }

  void add_clients() {
    for (std::uint32_t c = 0; c < s_.clients; ++c) {
      tbft::workload::OpenLoopConfig ol;
      ol.base.client_id = c;
      ol.base.request_bytes = s_.request_bytes;
      ol.base.start = 0;
      ol.base.stop = s_.load;
      ol.base.retry_timeout = s_.retry_timeout;
      ol.rate_per_sec = s_.rate_per_client;
      std::vector<tbft::workload::SubmitPort*> targets;
      for (std::size_t i = 0; i < ports_.size(); ++i) {
        targets.push_back(ports_[(c + i) % ports_.size()].get());
      }
      sim_->add_client(
          std::make_unique<tbft::workload::OpenLoopClient>(ol, std::move(targets), tracker_));
    }
  }

  void crash(NodeId victim) {
    if (tally_ != nullptr) retire(victim);
    sim_->crash_node(victim);
    replicas_[victim] = Replica{};
    durables_[victim].clear();  // close WAL and checkpoint files, like process death
  }

  void restart(NodeId victim) {
    auto fresh = make_replica(victim, /*timed_recovery=*/true);
    observer_[victim] = ledger_.add_observer(victim);
    sim_->restart_node(victim, std::move(fresh));
  }

  /// The restarted replica's frontier reached every live replica's, per shard.
  [[nodiscard]] bool caught_up(NodeId who) const {
    for (std::uint32_t k = 0; k < s_.shards; ++k) {
      const auto* me = instance(who, k);
      if (me == nullptr) return false;
      for (NodeId i = 0; i < s_.cfg.n; ++i) {
        const auto* other = instance(i, k);
        if (i == who || other == nullptr) continue;
        if (me->finalized_count() < other->finalized_count()) return false;
      }
    }
    return true;
  }

  /// Per shard, every live replica's chain instance.
  [[nodiscard]] std::vector<std::vector<tbft::multishot::MultishotNode*>> chains() const {
    std::vector<std::vector<tbft::multishot::MultishotNode*>> out(s_.shards);
    for (std::uint32_t k = 0; k < s_.shards; ++k) {
      for (NodeId i = 0; i < s_.cfg.n; ++i) out[k].push_back(instance(i, k));
    }
    return out;
  }

  /// Fold every live traced node and durable into the tally; keep spans.
  void retire_all() {
    for (NodeId i = 0; i < s_.cfg.n; ++i) retire(i);
  }

  [[nodiscard]] tbft::sim::Simulation& sim() { return *sim_; }
  [[nodiscard]] CommitLedger& ledger() { return ledger_; }
  [[nodiscard]] LedgerTracker& tracker() { return tracker_; }
  [[nodiscard]] tbft::workload::SubmitPort& port(NodeId i) { return *ports_.at(i); }
  [[nodiscard]] const std::vector<SpanLog>& spans() const { return spans_; }
  [[nodiscard]] const Timelines& timelines() const { return timelines_; }

 private:
  struct Replica {
    tbft::multishot::MultishotNode* node{nullptr};
    tbft::shard::ShardMux* mux{nullptr};
    TracedNode* traced{nullptr};
  };

  struct Port final : tbft::workload::SubmitPort {
    Port(Rig& rig, NodeId home) : rig(rig), home(home) {}
    bool submit(std::vector<std::uint8_t> tx) override {
      const std::uint32_t n = rig.s_.cfg.n;
      for (std::uint32_t j = 0; j < n; ++j) {
        const Replica& r = rig.replicas_[(home + j) % n];
        if (r.node != nullptr) return r.node->submit_tx(std::move(tx));
        if (r.mux != nullptr) {
          const auto tag = tbft::workload::parse_request_tag(tx);
          return r.mux->submit(tag ? rig.router_.shard_of(*tag) : 0, std::move(tx));
        }
      }
      return false;
    }
    Rig& rig;
    NodeId home;
  };

  [[nodiscard]] tbft::multishot::MultishotNode* instance(NodeId i, std::uint32_t k) const {
    const Replica& r = replicas_[i];
    if (r.node != nullptr) return k == 0 ? r.node : nullptr;
    return r.mux != nullptr ? &r.mux->instance(k) : nullptr;
  }

  std::unique_ptr<runtime::ProtocolNode> make_replica(NodeId i, bool timed_recovery = false) {
    durables_[i].clear();
    std::vector<std::unique_ptr<tbft::multishot::MultishotNode>> instances;
    for (std::uint32_t k = 0; k < s_.shards; ++k) {
      fs::path dir = dir_ / ("node-" + std::to_string(i));
      if (s_.shards > 1) dir /= "shard-" + std::to_string(k);
      fs::create_directories(dir);
      durables_[i].push_back(std::make_unique<tbft::storage::DurableChain>(dir));
      auto node = std::make_unique<tbft::multishot::MultishotNode>(s_.cfg);
      const std::int64_t t0 = steady_ns();
      tbft::storage::RecoveredState rec = durables_[i].back()->recover();
      if (timed_recovery && tally_ != nullptr) {
        tally_->recover_ms += static_cast<double>(steady_ns() - t0) / 1e6;
        tally_->recovered_blocks += rec.tip();
      }
      if (rec.tip() > 0 || !rec.commit_state.empty()) {
        node->restore_chain(rec.checkpoint, rec.commit_state, std::move(rec.tail));
      }
      node->set_durable(durables_[i].back().get());
      node->set_record_timeline(tally_ != nullptr);
      instances.push_back(std::move(node));
    }
    Replica r;
    std::unique_ptr<runtime::ProtocolNode> out;
    if (s_.shards == 1) {
      r.node = instances.front().get();
      out = std::move(instances.front());
    } else {
      auto mux = std::make_unique<tbft::shard::ShardMux>(std::move(instances));
      r.mux = mux.get();
      out = std::move(mux);
    }
    if (tally_ != nullptr) {
      auto traced = std::make_unique<TracedNode>(std::move(out), trace_, static_cast<int>(i));
      r.traced = traced.get();
      out = std::move(traced);
    }
    replicas_[i] = r;
    return out;
  }

  void retire(NodeId i) {
    Replica& r = replicas_[i];
    if (r.traced != nullptr) {
      tally_->absorb(*r.traced);
      spans_.push_back(r.traced->spans());
    }
    timelines_.resize(s_.shards, std::vector<Timeline>(s_.cfg.n));
    for (std::uint32_t k = 0; k < s_.shards; ++k) {
      if (const auto* node = instance(i, k); node != nullptr) timelines_[k][i].absorb(*node);
    }
    for (const auto& d : durables_[i]) {
      tally_->appends += d->wal_stats().appended;
      tally_->checkpoints += d->checkpoints_stored();
    }
  }

  const SimScenario& s_;
  fs::path dir_;
  LayerTally* tally_;
  tbft::shard::ShardRouter router_;
  CommitLedger ledger_;
  LedgerTracker tracker_;
  TraceShared trace_;
  std::unique_ptr<tbft::sim::Simulation> sim_;
  std::vector<Replica> replicas_;
  std::vector<std::vector<std::unique_ptr<tbft::storage::DurableChain>>> durables_;
  std::vector<std::uint32_t> observer_;  ///< replica -> its current ledger observer
  std::vector<std::unique_ptr<Port>> ports_;
  std::vector<SpanLog> spans_;
  Timelines timelines_;  ///< [shard][replica], every incarnation merged
};

}  // namespace

SimOutcome run_sim(const SimScenario& s, const fs::path& dir, LayerTally* tally,
                   const fs::path& spans_path) {
  SimOutcome o;
  Rig rig(s, dir, tally);
  rig.add_clients();
  tbft::sim::Simulation& sim = rig.sim();
  const std::uint64_t written0 = bytes_written();
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t wall0 = steady_ns();
  sim.start();
  for (const SimScenario::Churn& c : s.churn) {
    sim.run_until(c.at);
    rig.crash(c.victim);
    sim.run_until(c.at + c.down_for);
    rig.restart(c.victim);
    const runtime::Time restarted_at = sim.now();
    const bool caught = sim.run_until_pred([&] { return rig.caught_up(c.victim); },
                                           s.load + s.drain);
    o.caught_up = (o.catchup_ms.empty() || o.caught_up) && caught;
    o.catchup_ms.push_back(static_cast<double>(sim.now() - restarted_at) / 1e3);
  }
  if (sim.now() < s.load) sim.run_until(s.load);
  o.drained = sim.run_until_pred([&] { return rig.ledger().settled(); }, s.load + s.drain);
  // Let in-flight traffic settle so lagging replicas converge before the
  // consistency check.
  sim.run_until(sim.now() + 2 * s.cfg.delta_bound);
  o.wall_ns = steady_ns() - wall0;
  o.cpu_ns = process_cpu_ns() - cpu0;

  const auto chains = rig.chains();
  o.consistent = true;
  for (const auto& shard_chains : chains) {
    std::vector<tbft::multishot::MultishotNode*> live;
    for (auto* c : shard_chains) {
      if (c != nullptr) live.push_back(c);
    }
    o.consistent = o.consistent && live.size() == s.cfg.n &&
                   tbft::multishot::chains_prefix_consistent(live);
  }
  o.totals = rig.ledger().totals();
  o.times = rig.ledger().times(0, static_cast<std::uint32_t>(o.totals.requests));
  o.refused = rig.tracker().refused;

  const std::int64_t warm_ns = s.warmup * 1000;
  // Good case: scheduled after warm-up and early enough that neither the
  // first crash nor a client retry around it can touch the request.
  const std::int64_t good_end_ns =
      (s.churn.empty() ? s.load : s.churn.front().at - s.retry_timeout) * 1000;
  std::vector<CommitLedger::Times> good;
  std::vector<double> good_ms;
  for (const auto& t : o.times) {
    if (t.scheduled >= warm_ns && t.scheduled < good_end_ns && t.f1_at != kNotYet) {
      good.push_back(t);
      good_ms.push_back(static_cast<double>(t.f1_at - t.scheduled) / 1e6);
    }
  }
  o.good_mean_ms = mean(good_ms);
  o.good_p50_ms = quantile(good_ms, 0.5).value;
  o.good_count = good.size();

  std::vector<std::int64_t> commits;
  for (const auto& t : o.times) {
    if (t.f1_at != kNotYet) commits.push_back(t.f1_at);
  }
  std::sort(commits.begin(), commits.end());
  for (std::size_t e = 0; e < s.churn.size(); ++e) {
    const std::int64_t from = s.churn[e].at * 1000;
    const std::int64_t to = (e + 1 < s.churn.size() ? s.churn[e + 1].at : s.load) * 1000;
    std::int64_t prev = from;
    std::int64_t gap = 0;
    for (auto it = std::upper_bound(commits.begin(), commits.end(), from);
         it != commits.end() && *it < to; ++it) {
      gap = std::max(gap, *it - prev);
      prev = *it;
    }
    gap = std::max(gap, to - prev);
    o.outage_ms.push_back(static_cast<double>(gap) / 1e6);
  }

  if (tally != nullptr) {
    rig.retire_all();
    tally->disk_bytes += bytes_written() - written0;
    tally->sim_msgs += sim.trace().total_messages();
    tally->sim_bytes += sim.trace().total_bytes();
    tally->sim_wall_ns += o.wall_ns;
    tally->attempted += o.totals.requests;
    tally->admitted += o.totals.requests - o.refused;
    tally->committed += o.totals.f1;
    tally->failed += o.totals.requests - o.totals.f1;
    tally->deliveries += o.totals.f1 * s.cfg.n;
    tally->misrouted += o.totals.misrouted;
    tally->f1_per_shard = o.totals.f1_per_shard;
    // Good-case requests only: a crash stretches every stage at once.
    stage_split(good, rig.timelines(), std::vector<std::int64_t>(s.cfg.n, 0), s.cfg.f, *tally);
    if (!spans_path.empty()) {
      std::vector<const SpanLog*> logs;
      for (const auto& l : rig.spans()) logs.push_back(&l);
      if (!write_spans(spans_path.string(), logs)) {
        std::fprintf(stderr, "could not write the span file\n");
      }
    }
  }
  fs::remove_all(dir);
  return o;
}

double sim_setup_seconds(const SimScenario& s, const fs::path& dir) {
  const std::int64_t t0 = steady_ns();
  double seconds = -1;
  {
    Rig rig(s, dir, nullptr);
    rig.sim().start();
    // One warm-up request through the generators' path (client id past
    // every load client's).
    const std::uint64_t tag = tbft::workload::request_tag(s.clients, 0);
    const bool ok = rig.port(0).submit(
        tbft::workload::encode_request(s.clients, 0, s.request_bytes));
    rig.tracker().on_submitted(tag, rig.sim().now(), ok);
    if (rig.sim().run_until_pred([&] { return rig.ledger().totals().f1 >= 1; },
                                 10 * runtime::kSecond)) {
      seconds = static_cast<double>(steady_ns() - t0) / 1e9;
    }
  }
  fs::remove_all(dir);
  return seconds;
}

void check_sim(const SimOutcome& o, const char* what, RunResult& r) {
  const std::string w(what);
  if (o.totals.duplicates > 0) r.violate(w + ": a replica delivered a request twice");
  if (o.totals.foreign > 0) r.violate(w + ": foreign bytes committed");
  if (!o.consistent) r.violate(w + ": chains not prefix-consistent (or a replica is down)");
  if (!o.drained) r.violate(w + ": requests not committed on every replica by the drain deadline");
}

std::vector<SimScenario::Churn> churn_schedule(runtime::Time from, runtime::Duration every,
                                               int count, runtime::Duration down_for,
                                               std::uint32_t n, std::uint64_t seed) {
  std::vector<SimScenario::Churn> out;
  const auto jitter = static_cast<runtime::Duration>(tbft::mix64(seed) % 1000);
  for (int k = 0; k < count; ++k) {
    SimScenario::Churn c;
    // Evenly spaced; victims take turns, and the k-th crash lands k ms (plus
    // a seeded sub-ms offset) into its period, so every run samples the
    // same spread of leader-stripe phases: single episodes range from one
    // view-change timeout to several, and a run's median must not hinge on
    // which phases its seed happened to draw.
    c.at = from + every * k + k * runtime::kMillisecond + jitter;
    c.down_for = down_for;
    c.victim = static_cast<NodeId>(static_cast<std::uint64_t>(k) % n);
    out.push_back(c);
  }
  return out;
}

SimScenario churn_scenario(const tbft::multishot::MultishotConfig& cfg, std::uint32_t shards,
                           std::uint32_t request_bytes, std::uint64_t seed) {
  SimScenario s;
  s.cfg = cfg;
  s.shards = shards;
  s.seed = seed;
  s.clients = 2;
  s.rate_per_client = 2000;
  s.request_bytes = request_bytes;
  s.warmup = 200 * runtime::kMillisecond;
  const runtime::Duration every = 500 * runtime::kMillisecond;
  s.churn = churn_schedule(2 * runtime::kSecond, every, 16, 5 * cfg.delta_bound, cfg.n, seed);
  s.load = s.churn.back().at + every;
  return s;
}

void add_churn_metrics(const std::vector<const SimScenario*>& scenarios,
                       const std::vector<const SimOutcome*>& outcomes, RunResult& r) {
  double good_ms = 0;
  std::size_t good = 0;
  std::vector<double> outage;
  std::vector<double> catchup;
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    const SimScenario& s = *scenarios[k];
    const SimOutcome& o = *outcomes[k];
    check_sim(o, "sim churn", r);
    if (!o.caught_up) r.violate("sim churn: a restarted replica never caught up");
    for (std::size_t e = 0; e < o.outage_ms.size(); ++e) {
      std::fprintf(stderr,
                   "  churn run %zu episode %zu (replica %u): outage %.3f ms, catch-up %.3f ms\n",
                   k, e, s.churn[e].victim, o.outage_ms[e], o.catchup_ms[e]);
    }
    // Good-case latency in units of the scenario's own delta.
    good_ms += o.good_mean_ms * 1e3 / static_cast<double>(s.delta) *
               static_cast<double>(o.good_count);
    good += o.good_count;
    outage.insert(outage.end(), o.outage_ms.begin(), o.outage_ms.end());
    catchup.insert(catchup.end(), o.catchup_ms.begin(), o.catchup_ms.end());
  }
  r.add("commit_delays", good == 0 ? 0 : good_ms / static_cast<double>(good), "delta");
  r.add("outage_ms", iq_mean(outage), "ms");
  r.add("catchup_ms", iq_mean(catchup), "ms");
}

}  // namespace perfbench
