// perfbench: one workload run of the end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// (The program also starts itself with --setup-round <k> to time one
// set-up round in a fresh process; it then prints only the seconds.)
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}. A run that violates correctness (or whose generator fell
// behind) prints its reasons on stderr, no result, and exits 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <loopback-tcp|sharded-wal|"
               "sim-churn> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_dir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return usage("--seed takes an integer");
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(opt.seconds >= 1 && opt.seconds <= 600)) {
        return usage("--seconds takes a number in [1, 600]");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
      opt.trace = val == "1";
    } else if (key == "--setup-round") {
      opt.setup_round = static_cast<int>(std::strtol(val.c_str(), &end, 10));
      if (end == val.c_str() || *end != '\0' || opt.setup_round < 0) {
        return usage("--setup-round takes a round number");
      }
    } else if (key == "--work-dir") {
      opt.work_dir = val;
      have_dir = true;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (!have_dir) return usage("--work-dir is required");
  std::filesystem::create_directories(opt.work_dir);

  const bool sim = opt.workload == "sim-churn";
  if (!sim && opt.workload != "loopback-tcp" && opt.workload != "sharded-wal") {
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  if (opt.setup_round >= 0) {
    const double s = sim ? perfbench::sim_churn_setup_round(opt)
                         : perfbench::realtime_setup_round(opt);
    std::printf("%.17g\n", s);
    return s < 0 ? 1 : 0;
  }

  perfbench::RunResult r = sim ? perfbench::run_sim_churn(opt) : perfbench::run_realtime(opt);

  for (const auto& m : r.metrics) {
    std::fprintf(stderr, "  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (!std::isfinite(m.value)) r.violate("metric " + m.name + " is not finite");
  }
  if (!r.violations.empty()) {
    for (const auto& v : r.violations) std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());
    return 1;
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                r.metrics[i].name.c_str(), r.metrics[i].value, r.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
