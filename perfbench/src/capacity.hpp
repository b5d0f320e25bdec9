#pragma once
// Bounded capacity search: the highest offered open-loop rate whose trial
// passes (p99 under the workload's latency limit, goodput >= 95% of offered,
// no growing backlog -- the trial callback decides).
//
// The search ramps geometrically from `start` until one trial passes and one
// fails, then bisects the bracket in log space until fail/pass <= 1 +
// resolution. Every probe lies strictly inside the current bracket, so a
// noisy trial can narrow the bracket to the wrong side of the true knee but
// never invert it: the answer is always a rate that actually passed.

#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

namespace perfbench {

struct CapacitySearch {
  double start{1000};
  double floor{100};       ///< lowest rate the downward ramp tries
  double ceiling{1e6};     ///< highest rate the upward ramp tries
  double step{1.5};        ///< geometric ramp factor
  double resolution{0.04};
  int max_trials{10};
};

struct CapacityResult {
  double capacity{0};  ///< highest passing rate (0: nothing passed)
  double first_fail{std::numeric_limits<double>::infinity()};
  int trials{0};
  /// The bracket closed to `resolution`; false when trials ran out, the
  /// ceiling passed, or the floor failed.
  bool resolved{false};
  std::vector<std::pair<double, bool>> history;  ///< (rate, passed) per trial
};

template <class Trial>
CapacityResult find_capacity(const CapacitySearch& s, Trial&& trial) {
  CapacityResult r;
  double pass = 0;
  double fail = std::numeric_limits<double>::infinity();
  double rate = s.start;
  while (r.trials < s.max_trials) {
    const bool ok = trial(rate);
    r.history.emplace_back(rate, ok);
    ++r.trials;
    if (ok) {
      pass = rate;
    } else {
      fail = rate;
    }
    if (pass > 0 && std::isfinite(fail)) {
      if (fail / pass <= 1 + s.resolution) {
        r.resolved = true;
        break;
      }
      rate = std::sqrt(pass * fail);
    } else if (pass > 0) {
      if (rate >= s.ceiling) break;
      rate = std::min(rate * s.step, s.ceiling);
    } else {
      if (rate <= s.floor) break;
      rate = std::max(rate / s.step, s.floor);
    }
  }
  r.capacity = pass;
  r.first_fail = fail;
  return r;
}

}  // namespace perfbench
