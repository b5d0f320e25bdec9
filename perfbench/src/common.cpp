#include "common.hpp"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <limits>

extern char** environ;

namespace perfbench {

namespace {

/// Run set-up round `k` in a fresh process of this program; its seconds,
/// or -1 when it failed.
double spawn_round(const Options& opt, int k) {
  char seed[32];
  char seconds[32];
  std::snprintf(seed, sizeof seed, "%llu", static_cast<unsigned long long>(opt.seed));
  std::snprintf(seconds, sizeof seconds, "%g", opt.seconds);
  const std::string round = std::to_string(k);
  const std::string dir = opt.work_dir.string();
  const char* argv[] = {"perfbench",      "--workload", opt.workload.c_str(), "--seed",
                        seed,             "--seconds",  seconds,             "--trace",
                        "0",              "--work-dir", dir.c_str(),         "--setup-round",
                        round.c_str(),    nullptr};
  int fds[2];
  if (pipe(fds) != 0) return -1;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = -1;
  const int err = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                              const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[128];
  for (ssize_t got; err == 0 && (got = read(fds[0], buf, sizeof buf)) != 0;) {
    if (got > 0) {
      out.append(buf, static_cast<std::size_t>(got));
    } else if (errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  if (err != 0) return -1;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1;
  char* end = nullptr;
  const double v = std::strtod(out.c_str(), &end);
  return end == out.c_str() ? -1 : v;
}

}  // namespace

std::int64_t process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv_ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1000;
  };
  return tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::uint64_t bytes_written() {
  std::ifstream io("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

void SetupSamples::take(int rounds) {
  for (int i = 0; i < rounds; ++i) {
    seconds_.push_back(spawn_round(opt_, static_cast<int>(seconds_.size())));
  }
}

double SetupSamples::median(RunResult& r) const {
  if (seconds_.empty()) return 0;
  std::vector<double> sorted = seconds_;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.front() < 0) r.violate("setup: a set-up round failed");
  const double mid = perfbench::median(seconds_);
  std::fprintf(stderr, "setup: %zu rounds, min %.4f median %.4f max %.4f s\n", sorted.size(),
               sorted.front(), mid, sorted.back());
  return mid;
}

LatencySummary summarize(const std::vector<CommitLedger::Times>& times) {
  LatencySummary s;
  std::vector<double> ms;
  ms.reserve(times.size());
  for (const auto& t : times) {
    ++s.offered;
    if (t.f1_at == kNotYet) {
      ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    ++s.committed;
    ms.push_back(static_cast<double>(t.f1_at - t.scheduled) / 1e6);
  }
  s.p50 = quantile(ms, 0.5);
  s.p99 = quantile(ms, 0.99);
  return s;
}

TrialVerdict judge_trial(const std::vector<CommitLedger::Times>& times, std::int64_t start_ns,
                         std::int64_t end_ns, const TrialLimits& limits) {
  TrialVerdict v;
  const LatencySummary s = summarize(times);
  v.p99_ms = s.p99.value;
  const auto limit_ns = static_cast<std::int64_t>(limits.p99_ms * 1e6);
  const std::int64_t mid_ns = start_ns + (end_ns - start_ns) / 2;
  std::uint64_t good = 0;
  std::int64_t out_mid = 0;
  std::int64_t out_end = 0;
  std::uint64_t second_half = 0;
  for (const auto& t : times) {
    if (t.f1_at != kNotYet && t.f1_at <= end_ns + limit_ns) ++good;
    if (t.scheduled < mid_ns) {
      if (t.f1_at > mid_ns) ++out_mid;
    } else {
      ++second_half;
    }
    if (t.scheduled < end_ns && t.f1_at > end_ns) ++out_end;
  }
  v.goodput = times.empty() ? 0 : static_cast<double>(good) / static_cast<double>(times.size());
  v.backlog_growth = second_half == 0 ? 0
                                      : static_cast<double>(out_end - out_mid) /
                                            static_cast<double>(second_half);
  v.pass = s.p99.supported() && v.p99_ms <= limits.p99_ms && v.goodput >= limits.min_goodput &&
           v.backlog_growth <= limits.max_backlog_growth;
  return v;
}

}  // namespace perfbench
