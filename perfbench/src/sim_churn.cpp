// The sim-churn workload: the deterministic simulator, n = 4, δ = 1 ms
// +-10% on every link, Δ = 10 ms, pipelining depth 4 with adaptive
// batching, a WAL per replica, under the shared churn scenario (sim.hpp):
// 16 crash/restart episodes after a good case. Its virtual-time metrics
// repeat exactly for a seed; set-up time is a median over repeated rounds
// and CPU per request is pooled over repeated runs.

#include <cmath>
#include <string>
#include <vector>

#include "capacity.hpp"
#include "sim.hpp"
#include "tetrabft.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace runtime = tbft::runtime;

namespace {

/// Capacity trials' p99 limit (virtual): 25 Δ, above the good-case tail of
/// depth-4 pipelining, so trials fail on saturation.
constexpr double kP99LimitMs = 250;
/// Stage medians must sum to the commit p50 within this share of it. The
/// stages telescope per request, but medians do not add exactly: depth-4
/// good-case latency is multi-modal, and the sum runs about 8% low.
constexpr double kStageSumTolerance = 0.15;

SimScenario scenario(std::uint64_t seed) {
  tbft::ClusterBuilder b;
  b.nodes(4).seed(seed).delta_bound(10 * runtime::kMillisecond).pipelining(4).adaptive_batching(
      16 * 64);
  return churn_scenario(b.node_config(), 1, 64, seed);
}

bool same_virtual(const SimOutcome& a, const SimOutcome& b) {
  if (a.times.size() != b.times.size()) return false;
  for (std::size_t i = 0; i < a.times.size(); ++i) {
    if (a.times[i].scheduled != b.times[i].scheduled || a.times[i].f1_at != b.times[i].f1_at ||
        a.times[i].tag != b.times[i].tag || a.times[i].stream != b.times[i].stream) {
      return false;
    }
  }
  return a.outage_ms == b.outage_ms && a.catchup_ms == b.catchup_ms;
}

/// Latency over requests scheduled in [warmup, load).
LatencySummary loaded_latency(const SimScenario& s, const SimOutcome& o) {
  std::vector<CommitLedger::Times> in;
  for (const auto& t : o.times) {
    if (t.scheduled >= s.warmup * 1000 && t.scheduled < s.load * 1000) in.push_back(t);
  }
  return summarize(in);
}

double cpu_us_per_tx(const SimOutcome& o) {
  return o.totals.f1 == 0 ? 0 : static_cast<double>(o.cpu_ns) / 1e3 / static_cast<double>(o.totals.f1);
}

/// Capacity in virtual time: the highest rate the configuration of `s`
/// sustains without churn.
double search_capacity(const SimScenario& s, const Options& opt, RunResult& r) {
  CapacitySearch cs;
  cs.start = 64000;
  cs.floor = 4000;
  cs.ceiling = 400000;
  cs.step = 1.4;
  cs.resolution = 0.03;
  cs.max_trials = 8;
  TrialLimits limits;
  limits.p99_ms = kP99LimitMs;
  return find_capacity(cs, [&](double rate) {
    SimScenario t = s;
    t.churn.clear();
    t.rate_per_client = rate / t.clients;
    t.load = 500 * runtime::kMillisecond;
    t.warmup = 100 * runtime::kMillisecond;
    t.drain = 4 * static_cast<runtime::Duration>(kP99LimitMs * 1000);
    const SimOutcome to = run_sim(t, opt.work_dir / "capacity");
    std::vector<CommitLedger::Times> in;
    for (const auto& x : to.times) {
      if (x.scheduled >= t.warmup * 1000) in.push_back(x);
    }
    const TrialVerdict v = judge_trial(in, t.warmup * 1000, t.load * 1000, limits);
    if (to.totals.duplicates > 0 || to.totals.foreign > 0 || !to.consistent) {
      r.violate("capacity trial: exactly-once or consistency violated");
    }
    std::fprintf(stderr,
                 "  trial %.0f req/s: p99 %.2f ms goodput %.3f backlog %.3f -> %s (%.2f s wall)\n",
                 rate, v.p99_ms, v.goodput, v.backlog_growth, v.pass ? "pass" : "fail",
                 static_cast<double>(to.wall_ns) / 1e9);
    return v.pass;
  }).capacity;
}

RunResult run_untraced(const Options& opt) {
  RunResult r;
  const SimScenario s = scenario(opt.seed);
  // Set-up rounds in three groups: at the start, after the seed's scenario
  // and at the end.
  SetupSamples setups(opt);
  const auto setup_group = [&] { setups.take(25); };
  setup_group();

  // The seed's scenario runs twice: the virtual results must be identical
  // (determinism). Then kDerived scenarios derived from the seed run once
  // each. CPU per request is pooled over all these runs, and the churn
  // metrics over every scenario's episodes. From three back-to-back runs of
  // one scenario, CPU per request spread over ten seeds by up to 0.24 of
  // the median: a single-threaded run's user time drifts by up to a quarter
  // within a minute on a shared machine. From one scenario's 16 episodes,
  // outage_ms spread over five seeds by 0.21.
  constexpr std::uint64_t kDerived = 8;
  std::vector<SimScenario> scenarios{s};
  std::vector<SimOutcome> outcomes;
  outcomes.reserve(kDerived + 1);
  outcomes.push_back(run_sim(s, opt.work_dir / "churn"));
  const SimOutcome& o = outcomes.front();
  std::int64_t cpu_ns = 0;
  std::uint64_t commits = 0;
  const auto note_run = [&](const SimOutcome& run, const char* what) {
    cpu_ns += run.cpu_ns;
    commits += run.totals.f1;
    r.attempted += run.totals.requests;
    r.failed += run.totals.requests - run.totals.f1;
    if (run.refused > 0) r.violate(std::string(what) + ": requests refused");
    std::fprintf(stderr, "%s: %.2f s wall, %.1f us CPU/tx\n", what,
                 static_cast<double>(run.wall_ns) / 1e9, cpu_us_per_tx(run));
  };
  note_run(o, "churn run");
  {
    const SimOutcome again = run_sim(s, opt.work_dir / "churn");
    cpu_ns += again.cpu_ns;
    commits += again.totals.f1;
    if (!same_virtual(o, again)) {
      r.violate("determinism: two runs of the same seed differ in virtual time");
    }
  }
  const LatencySummary lat = loaded_latency(s, o);
  if (!lat.p99.supported()) r.violate("churn run: too few samples for p99");
  // Peak memory after a fixed amount of work (before the derived runs).
  const double rss_mb = peak_rss_mb();

  setup_group();
  for (std::uint64_t k = 1; k <= kDerived; ++k) {
    scenarios.push_back(scenario(tbft::mix64(opt.seed) + k));
    outcomes.push_back(run_sim(scenarios.back(), opt.work_dir / "churn"));
    note_run(outcomes.back(), "derived churn run");
  }
  setup_group();

  r.add("setup_s", setups.median(r), "s");
  r.add("cpu_us_per_tx", static_cast<double>(cpu_ns) / 1e3 / static_cast<double>(commits),
        "us");
  r.add("rss_peak_mb", rss_mb, "MiB");
  std::vector<const SimScenario*> ss;
  std::vector<const SimOutcome*> os;
  for (std::size_t k = 0; k < scenarios.size(); ++k) {
    ss.push_back(&scenarios[k]);
    os.push_back(&outcomes[k]);
  }
  add_churn_metrics(ss, os, r);
  return r;
}

RunResult run_traced(const Options& opt) {
  RunResult r;
  const SimScenario s = scenario(opt.seed);
  LayerTally t;
  const SimOutcome plain = run_sim(s, opt.work_dir / "untraced");
  check_sim(plain, "untraced run", r);
  const SimOutcome traced = run_sim(s, opt.work_dir / "traced", &t, opt.work_dir / "spans.csv");
  check_sim(traced, "traced run", r);
  if (!same_virtual(plain, traced)) r.violate("tracing changed the virtual-time schedule");

  const LatencySummary lat = loaded_latency(s, traced);
  const LatencySummary plain_lat = loaded_latency(s, plain);
  t.untraced_p50_ms = plain_lat.p50.value;
  t.untraced_p99_ms = plain_lat.p99.value;
  t.traced_p50_ms = lat.p50.value;
  t.untraced_cpu_us_per_tx = cpu_us_per_tx(plain);
  t.capacity_tx_s = search_capacity(s, opt, r);
  if (t.capacity_tx_s <= 0) r.violate("capacity search: no rate passed");
  t.traced_cpu_us_per_tx = cpu_us_per_tx(traced);

  // Stage-sum check: the three stage medians must account for the commit
  // p50 of the same (good-case) requests, or a stage is missing.
  const double p50 = traced.good_p50_ms;
  if (static_cast<double>(t.stage_queue_ms.size()) < 0.99 * static_cast<double>(traced.good_count)) {
    r.violate("stage split covers " + std::to_string(t.stage_queue_ms.size()) + " of " +
              std::to_string(traced.good_count) + " good-case requests");
  }
  const double sum = quantile(t.stage_queue_ms, 0.5).value +
                     quantile(t.stage_notarize_ms, 0.5).value +
                     quantile(t.stage_finalize_ms, 0.5).value;
  std::fprintf(stderr, "stage sum %.3f ms vs commit p50 %.3f ms\n", sum, p50);
  if (std::abs(sum - p50) > kStageSumTolerance * p50) {
    r.violate("stage medians sum to " + std::to_string(sum) + " ms against a commit p50 of " +
              std::to_string(p50) + " ms: a stage is missing");
  }
  r.attempted = traced.totals.requests;
  r.failed = traced.totals.requests - traced.totals.f1;
  emit_layers(t, r);
  return r;
}

}  // namespace

double sim_churn_setup_round(const Options& opt) {
  return sim_setup_seconds(scenario(opt.seed),
                           opt.work_dir / ("setup-" + std::to_string(opt.setup_round)));
}

RunResult run_sim_churn(const Options& opt) {
  return opt.trace ? run_traced(opt) : run_untraced(opt);
}

}  // namespace perfbench
