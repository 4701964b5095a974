#include "selftest.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <thread>

#include "timing.hpp"

namespace livebench {
namespace {

bool report(bool ok, const std::string& what) {
  std::printf("self-test %s: %s\n", ok ? "PASS" : "FAIL", what.c_str());
  std::fflush(stdout);
  return ok;
}

/// A stub endpoint that answers at once, except for one call that stalls
/// for kStallMs. At kRate/s a correct open-loop generator must charge the
/// stall to the ~kRate * kStallMs requests due while it lasts; timing from
/// the actual send would show a single slow request.
bool stall_is_charged() {
  constexpr double kRate = 5000;
  constexpr double kStallMs = 20;
  constexpr std::uint64_t kStallSeq = 500;
  const PhaseSpec spec{.name = "stall", .rate = kRate, .seconds = 0.4,
                       .threads = 1, .max_batch = 1};
  const IssueFn stub = [](int, std::span<const std::uint64_t> seqs,
                          std::span<Reply> out) {
    for (std::size_t k = 0; k < seqs.size(); ++k) {
      if (seqs[k] == kStallSeq) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<int>(kStallMs * 1000)));
      }
      out[k].outcome = Outcome::kAllowed;
    }
  };
  const PhaseResult phase = run_open_loop(spec, stub);
  // Requests due in the first (kStallMs - 5) ms of the stall finish at least
  // 5 ms after they were due.
  std::size_t charged = 0, slow_from_send = 0;
  double max_us = 0;
  for (const Record& r : phase.records) {
    if (r.latency_ns >= 5'000'000) ++charged;
    if (r.latency_ns - r.late_ns >= 5'000'000) ++slow_from_send;
    max_us = std::max(max_us, static_cast<double>(r.latency_ns) / 1e3);
  }
  const double expected = (kStallMs - 5) * kRate / 1000;  // 75
  const Summary s = summarize(phase, 1000);
  const bool ok = charged >= 0.8 * expected && charged <= 1.5 * expected &&
                  max_us >= kStallMs * 1000 * 0.95 && slow_from_send == 1;
  return report(ok, fmt("stall of %.0fms at %.0f/s charged to %zu requests "
                        "(expected ~%.0f), max latency %.0fus, %zu slow if "
                        "timed from send; late_p99 %.0fus",
                        kStallMs, kRate, charged, expected, max_us,
                        slow_from_send, s.late_p99_us));
}

/// Run `tool -f <pattern>` (pgrep / pkill) without a shell, whose own
/// command line would match the pattern; returns its exit code.
int run_proc_tool(const char* tool, const char* signal_flag,
                  const std::string& pattern) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    if (signal_flag) {
      ::execlp(tool, tool, signal_flag, "-f", pattern.c_str(),
               static_cast<char*>(nullptr));
    } else {
      ::execlp(tool, tool, "-f", pattern.c_str(), static_cast<char*>(nullptr));
    }
    ::_exit(127);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 127;
}

bool janusd_running(const std::string& janusd) {
  return run_proc_tool("pgrep", nullptr, janusd) == 0;
}

/// Run the benchmark itself on a short udp_hot run (with its default janusd:
/// passing the path would put it on the child's command line, where
/// `pgrep -f` would mistake the child for a janusd). `signal_after_start`
/// (0 = none) is sent once its janusd processes are up. Returns the exit
/// status as a shell would show it (128 + signal when killed).
int run_child(const Options& opt, const std::string& self_exe,
              const std::string& tag, int signal_after_start,
              bool inject_fault, double seconds) {
  const std::string workdir = opt.workdir + "/" + tag;
  const std::string log = opt.workdir + "/" + tag + ".log";
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int fd = ::open(log.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    if (inject_fault) ::setenv(kFaultEnv, "wrong_verdict", 1);
    const std::string secs = fmt("%g", seconds);
    ::execl(self_exe.c_str(), self_exe.c_str(), "--workload", "udp_hot",
            "--seed", "7", "--seconds", secs.c_str(), "--trace", "0",
            "--workdir", workdir.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  if (signal_after_start != 0) {
    const std::int64_t deadline = now_ns() + 30'000'000'000;
    while (!janusd_running(opt.janusd) && now_ns() < deadline) {
      ::usleep(10'000);
    }
    ::usleep(300'000);  // mid set-up or mid phase, either way children live
    ::kill(pid, signal_after_start);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}

bool hygiene(const Options& opt, const std::string& self_exe,
             const std::string& what, const std::string& tag, int sig,
             bool fault, int expect_exit) {
  const int rc = run_child(opt, self_exe, tag, sig, fault, sig ? 20 : 1);
  // SIGKILL leaves the reaping to PR_SET_PDEATHSIG and the new parent.
  if (sig == SIGKILL) ::usleep(500'000);
  const bool orphans = janusd_running(opt.janusd);
  if (orphans) {
    run_proc_tool("pkill", "-9", opt.janusd);
  }
  return report(rc == expect_exit && !orphans,
                fmt("%s: exit %d (expected %d), %s", what.c_str(), rc,
                    expect_exit,
                    orphans ? "ORPHANED janusd found" : "no orphaned janusd"));
}

}  // namespace

int run_self_tests(const Options& opt, const std::string& self_exe) {
  if (janusd_running(opt.janusd)) {
    std::fprintf(stderr,
                 "livebench: janusd processes from %s already running\n",
                 opt.janusd.c_str());
    return 1;
  }
  bool ok = stall_is_charged();
  ok &= hygiene(opt, self_exe, "successful run", "ok", 0, false, 0);
  ok &= hygiene(opt, self_exe, "wrong verdict", "fault", 0, true, 3);
  ok &= hygiene(opt, self_exe, "SIGTERM", "term", SIGTERM, false,
                128 + SIGTERM);
  ok &= hygiene(opt, self_exe, "SIGINT", "int", SIGINT, false, 128 + SIGINT);
  ok &= hygiene(opt, self_exe, "SIGKILL", "kill", SIGKILL, false,
                128 + SIGKILL);
  std::printf("self-tests %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace livebench
