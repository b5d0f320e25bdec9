#pragma once
// The benchmark's workloads. Each returns every end-to-end metric (untraced
// run) or every per-layer metric (traced run), plus its correctness verdict.

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// loopback-tcp, sharded-wal.
RunResult run_realtime(const Options& opt);
/// sim-churn.
RunResult run_sim_churn(const Options& opt);

/// Set-up round opt.setup_round of a workload (see SetupSamples): seconds
/// from build to the first f+1 commit, or -1 when the round failed.
double realtime_setup_round(const Options& opt);
double sim_churn_setup_round(const Options& opt);

}  // namespace perfbench
