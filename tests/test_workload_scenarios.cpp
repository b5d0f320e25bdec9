// Fault-scenario presets under load (ISSUE acceptance): partition-during-
// load and leader-crash-under-load must commit every admitted request after
// GST / around the crashed leader's slots, exactly once, with consistent
// chains; the junk-flood preset additionally exercises every decoder.

#include <gtest/gtest.h>

#include "workload/scenarios.hpp"

namespace tbft::workload {
namespace {

ScenarioOptions small_run(Preset preset, std::uint64_t seed) {
  ScenarioOptions opts;
  opts.preset = preset;
  opts.cluster.seed(seed);
  opts.load_duration = 300 * sim::kMillisecond;
  opts.rate_per_sec = 800;
  opts.clients = 2;
  return opts;
}

TEST(WorkloadScenarios, PartitionDuringLoadCommitsAllAdmittedAfterGst) {
  const auto res = run_scenario(small_run(Preset::kPartitionDuringLoad, 21));
  EXPECT_GT(res.report.admitted, 100u);
  EXPECT_TRUE(res.all_admitted_committed);
  EXPECT_TRUE(res.report.exactly_once());
  EXPECT_TRUE(res.chains_consistent);
  // No quorum exists before GST (load_duration / 2), so the tail of the
  // latency distribution must span the partition.
  EXPECT_GT(res.report.latency_max_ms, 100.0);
}

TEST(WorkloadScenarios, LeaderCrashUnderLoadCommitsAllAdmitted) {
  const auto res = run_scenario(small_run(Preset::kLeaderCrashUnderLoad, 22));
  EXPECT_GT(res.report.admitted, 100u);
  EXPECT_TRUE(res.all_admitted_committed);
  EXPECT_TRUE(res.report.exactly_once());
  EXPECT_TRUE(res.chains_consistent);
  // Every 4th slot is led by the crashed node and needs a view change; the
  // p99 shows it while the median stays in the good-case regime.
  EXPECT_GE(res.report.latency_p99_ms, res.report.latency_p50_ms);
}

TEST(WorkloadScenarios, JunkFloodUnderLoadCommitsAllAdmitted) {
  const auto res = run_scenario(small_run(Preset::kJunkFloodUnderLoad, 23));
  EXPECT_GT(res.report.admitted, 100u);
  EXPECT_TRUE(res.all_admitted_committed);
  EXPECT_TRUE(res.report.exactly_once());
  EXPECT_TRUE(res.chains_consistent);
}

TEST(WorkloadScenarios, ClosedLoopSurvivesLeaderCrash) {
  auto opts = small_run(Preset::kLeaderCrashUnderLoad, 24);
  opts.closed_loop = true;
  opts.clients = 2;
  opts.outstanding = 6;
  const auto res = run_scenario(opts);
  EXPECT_GT(res.report.admitted, 2u * 6u);
  EXPECT_TRUE(res.all_admitted_committed);
  EXPECT_TRUE(res.report.exactly_once());
}

}  // namespace
}  // namespace tbft::workload
