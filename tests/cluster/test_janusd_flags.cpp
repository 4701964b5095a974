// janusd flag parsing: a flag the role never reads is rejected with exit 2
// and a message naming it, so a typo (or a flag that no longer exists) can
// never silently fall back to a default; every documented flag is accepted.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace janus {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

/// Run janusd with `args` to completion. Every invocation here should fail
/// before a node starts; the 10 s kill bounds a janusd that instead starts
/// serving (it then reports exit code -1).
RunResult run_janusd(const std::string& args) {
  const std::string cmd = "timeout -s KILL 10 " +
                          std::string(JANUS_JANUSD_BIN) + " " + args +
                          " 2>&1 </dev/null";
  RunResult r;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  const int status = ::pclose(pipe);
  if (WIFEXITED(status) && WEXITSTATUS(status) != 128 + SIGKILL) {
    r.exit_code = WEXITSTATUS(status);
  }
  return r;
}

std::string rules_file() {
  const std::string path = ::testing::TempDir() + "/janusd_flags_rules.conf";
  std::ofstream(path) << "alice = 1 2\n";
  return path;
}

TEST(JanusdFlagsTest, MisspelledFlagIsRejectedByName) {
  const RunResult r = run_janusd("server --listen 127.0.0.1:0 --rules " +
                                 rules_file() + " --wokers 8");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown flag --wokers"), std::string::npos)
      << r.output;
}

TEST(JanusdFlagsTest, RemovedFlagsAreRejected) {
  const std::string base =
      "server --listen 127.0.0.1:0 --rules " + rules_file();
  for (const std::string& flag :
       {std::string("--threading shard-per-worker"),
        std::string("--threading=shared-queue"),
        std::string("--pin-workers")}) {
    const RunResult r = run_janusd(base + " " + flag);
    EXPECT_EQ(r.exit_code, 2) << flag << ": " << r.output;
    const std::string name = flag.substr(0, flag.find_first_of(" ="));
    EXPECT_NE(r.output.find("unknown flag " + name), std::string::npos)
        << flag << ": " << r.output;
  }
  const RunResult uring = run_janusd(base + " --data-path uring");
  EXPECT_EQ(uring.exit_code, 2) << uring.output;
  EXPECT_NE(uring.output.find("--data-path"), std::string::npos)
      << uring.output;
}

TEST(JanusdFlagsTest, FlagOfAnotherRoleIsRejected) {
  const RunResult r = run_janusd(
      "router --listen 127.0.0.1:0 --backends 127.0.0.1:9 --rules x.conf");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown flag --rules"), std::string::npos)
      << r.output;
}

TEST(JanusdFlagsTest, EveryDocumentedFlagIsAccepted) {
  // Each role gets every flag of its usage text. The unparsable --listen
  // makes the run fail right after flag parsing, so the only thing under
  // test is that no flag is refused as unknown.
  const std::string observability =
      " --admin 127.0.0.1:0 --stats-ms 1000 --log-level info"
      " --trace-dump /dev/null";
  const std::vector<std::string> invocations = {
      "server --listen bad --rules r.conf --wal w --workers 4 --shards 16"
      " --data-path mmsg --sync-ms 5000 --checkpoint-ms 5000"
      " --snapshot s --compact-ms 60000 --default-rate 1"
      " --default-capacity 2 --cluster-listen 127.0.0.1:0"
      " --bfd-listen 127.0.0.1:0 --migrate-window-ms 250"
      " --ha-listen 127.0.0.1:0 --ha-master 127.0.0.1:9 --ha-ms 500" +
          observability,
      "router --listen bad --backends 127.0.0.1:9 --timeout-us 100"
      " --retries 5 --default-allow" +
          observability,
      "router --listen bad --cluster --members 127.0.0.1:9//"
      " --standbys - --bfd-ms 50 --bfd-mult 3" +
          observability,
      "gateway --listen bad --backends 127.0.0.1:9 --policy prequal"
      " --timeout-ms 1000 --workers 4 --probe-ms 5 --probe-age-ms 250"
      " --probe-reuse 16 --probe-d 3 --probe-timeout-ms 50" +
          observability,
  };
  for (const std::string& args : invocations) {
    const RunResult r = run_janusd(args);
    EXPECT_EQ(r.output.find("unknown flag"), std::string::npos)
        << args << ": " << r.output;
    EXPECT_NE(r.output.find("expected ip:port, got bad"), std::string::npos)
        << args << ": " << r.output;
  }
}

}  // namespace
}  // namespace janus
