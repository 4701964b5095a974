// Idle threads sleep until there is work. Every long-lived thread a janusd
// server runs blocks in a syscall that returns only for work or for stop():
// shared-queue workers in recvmmsg, the accept loops in accept(), the BFD
// responder until a probe or its detection deadline. A timer poll shows up
// as voluntary context switches while nothing happens — the 50 ms listener
// poll alone made ~40 in 2 s. Counted per thread from
// /proc/self/task/<tid>/status, over only the threads the component under
// test started.
#include <gtest/gtest.h>

#include <dirent.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "db/rule_store.hpp"
#include "net/bfd.hpp"
#include "net/http.hpp"
#include "server/cluster_agent.hpp"
#include "server/ha.hpp"
#include "server/qos_server_node.hpp"

namespace janus::server {
namespace {

std::set<int> thread_ids() {
  std::set<int> ids;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return ids;
  while (const dirent* e = ::readdir(dir)) {
    const int tid = std::atoi(e->d_name);
    if (tid > 0) ids.insert(tid);
  }
  ::closedir(dir);
  return ids;
}

long voluntary_switches(int tid) {
  const std::string path =
      "/proc/self/task/" + std::to_string(tid) + "/status";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return -1;  // thread exited
  char line[256];
  long n = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "voluntary_ctxt_switches: %ld", &n) == 1) break;
  }
  std::fclose(f);
  return n;
}

/// Construct before starting the component: measure() then counts only the
/// threads started since.
class IdleProbe {
 public:
  IdleProbe() : before_(thread_ids()) {}

  /// Voluntary context switches the new threads make over `window`, after
  /// a short settle so thread start-up is not counted.
  long measure(Duration window = seconds(2)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    std::map<int, long> start;
    for (int tid : thread_ids()) {
      if (before_.count(tid) == 0) start[tid] = voluntary_switches(tid);
    }
    EXPECT_FALSE(start.empty()) << "component started no threads";
    std::this_thread::sleep_for(window);
    long total = 0;
    for (const auto& [tid, n0] : start) {
      const long n1 = voluntary_switches(tid);
      if (n0 >= 0 && n1 >= 0) total += n1 - n0;
    }
    return total;
  }

 private:
  std::set<int> before_;
};

// "A few": scheduler noise, never a timer.
constexpr long kSlack = 4;

class IdleWakeupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<db::RuleStore>(db_);
    ASSERT_TRUE(store_->put({.key = "tenant", .refill_per_sec = 10,
                             .capacity = 10, .credit = 10}).ok());
  }

  std::unique_ptr<QosServerNode> start_node(QosServerConfig cfg = {}) {
    cfg.sync_interval = Duration{0};
    cfg.checkpoint_interval = Duration{0};
    auto node = QosServerNode::start({"127.0.0.1", 0}, *store_, cfg);
    EXPECT_TRUE(node.ok()) << node.error().message;
    return std::move(node).take();
  }

  db::Database db_;
  std::unique_ptr<db::RuleStore> store_;
};

TEST_F(IdleWakeupTest, QosServerNodeWakesOnlyForItsWatchdog) {
  IdleProbe probe;
  auto node = start_node();  // default mode, 1 s watchdog
  const long switches = probe.measure(seconds(2));
  EXPECT_LE(switches, 2 + kSlack)
      << "an idle shared-queue server polled (2 watchdog ticks expected)";
  node->stop();
}

TEST_F(IdleWakeupTest, ClusterAgentBlocksInAccept) {
  auto node = start_node();
  IdleProbe probe;
  auto agent = ClusterAgent::start({"127.0.0.1", 0}, *node);
  ASSERT_TRUE(agent.ok()) << agent.error().message;
  EXPECT_LE(probe.measure(), kSlack);
  agent.value()->stop();
  node->stop();
}

TEST_F(IdleWakeupTest, HaSnapshotServerBlocksInAccept) {
  auto node = start_node();
  IdleProbe probe;
  auto ha = HaSnapshotServer::start({"127.0.0.1", 0}, node->admission());
  ASSERT_TRUE(ha.ok()) << ha.error().message;
  EXPECT_LE(probe.measure(), kSlack);
  ha.value()->stop();
  node->stop();
}

TEST_F(IdleWakeupTest, BfdResponderBlocksUntilAProbe) {
  IdleProbe probe;
  auto bfd = net::BfdResponder::start(
      net::BfdResponder::Options{.listen = {"127.0.0.1", 0},
                                 .timers = net::BfdTimers{},
                                 .local_disc = 2},
      SteadyClock::instance());
  ASSERT_TRUE(bfd.ok()) << bfd.error().message;
  EXPECT_LE(probe.measure(), kSlack);
  bfd.value()->stop();
}

TEST_F(IdleWakeupTest, HttpServerBlocksInAccept) {
  IdleProbe probe;
  auto http = net::HttpServer::start({"127.0.0.1", 0}, [](const auto&) {
    return net::HttpResponse::text(200, "ok");
  });
  ASSERT_TRUE(http.ok()) << http.error().message;
  EXPECT_LE(probe.measure(), kSlack);
  http.value()->stop();
}

TEST_F(IdleWakeupTest, StopWakesBlockedThreadsPromptly) {
  // Blocking without a timer must not cost shutdown latency: stop() wakes
  // each blocked thread through its socket.
  auto node = start_node();
  auto agent = ClusterAgent::start({"127.0.0.1", 0}, *node);
  ASSERT_TRUE(agent.ok());
  auto ha = HaSnapshotServer::start({"127.0.0.1", 0}, node->admission());
  ASSERT_TRUE(ha.ok());
  auto bfd = net::BfdResponder::start(
      net::BfdResponder::Options{.listen = {"127.0.0.1", 0},
                                 .timers = net::BfdTimers{},
                                 .local_disc = 2},
      SteadyClock::instance());
  ASSERT_TRUE(bfd.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const TimePoint t0 = SteadyClock::instance().now();
  agent.value()->stop();
  ha.value()->stop();
  bfd.value()->stop();
  node->stop();
  EXPECT_LT(SteadyClock::instance().now() - t0, millis(1000));
}

}  // namespace
}  // namespace janus::server
