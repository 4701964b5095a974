// janusd --wal restart (§II-D): "the replacement QoS server will use the
// last check-pointed credit information from the database as the initial
// credit value". A real janusd process spends its whole allowance, is
// SIGKILLed once a check-point has landed in the WAL, and restarts with the
// same flags: the restarted process must not hand the spent credit back —
// reloading the unchanged rules file after WAL recovery used to upsert
// every rule at full capacity.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cluster_fixture.hpp"
#include "router/udp_qos_client.hpp"
#include "wire/message.hpp"

namespace janus::cluster_test {
namespace {

class JanusdRestartTest : public ClusterFixture {
 protected:
  /// Send `n` sequential checks for `key`; returns how many were admitted.
  int admitted(const net::SockAddr& server, const std::string& key, int n) {
    router::UdpClientConfig cfg;
    cfg.timeout = millis(500);
    cfg.max_retries = 1;
    router::UdpQosClient client(cfg);
    int allowed = 0;
    for (int i = 0; i < n; ++i) {
      wire::QosRequest req;
      req.request_id = static_cast<std::uint64_t>(i + 1);
      req.key = key;
      req.cost = 1;
      auto resp = client.call(server, req);
      EXPECT_TRUE(resp.ok());
      EXPECT_EQ(resp.value().status, wire::ResponseStatus::kOk)
          << "request " << i << " went unanswered";
      if (resp.value().allowed) ++allowed;
    }
    return allowed;
  }

  std::uintmax_t wal_bytes() const {
    std::error_code ec;
    const auto n = std::filesystem::file_size(wal_path_, ec);
    return ec ? 0 : n;
  }

  std::string wal_path_;
};

TEST_F(JanusdRestartTest, WalRestartNeverHandsBackSpentCredit) {
  wal_path_ = std::string(JANUS_CLUSTER_LOG_DIR) + "/" + test_tag_ + ".wal";
  std::remove(wal_path_.c_str());
  write_rules("alice = 0 10\n");  // no refill: the allowance is 10, ever
  const std::vector<std::string> flags = {"--wal", wal_path_,
                                          "--checkpoint-ms", "100"};

  ServerProcess& first = spawn_server("qos-life1", flags,
                                      /*with_cluster_port=*/false);
  EXPECT_EQ(admitted(first.udp, "alice", 15), 10);

  // Wait for two WAL appends after the last reply: the check-point pass
  // behind the second one started after the first finished, so it read the
  // drained bucket.
  std::uintmax_t seen = wal_bytes();
  int growths = 0;
  const TimePoint deadline = SteadyClock::instance().now() + seconds(10);
  while (growths < 2 && SteadyClock::instance().now() < deadline) {
    ::usleep(5000);
    const std::uintmax_t now_bytes = wal_bytes();
    if (now_bytes != seen) {
      ++growths;
      seen = now_bytes;
    }
  }
  ASSERT_EQ(growths, 2) << "no check-point reached the WAL";
  sigkill(first);
  const std::uintmax_t at_kill = wal_bytes();

  ServerProcess& second = spawn_server("qos-life2", flags,
                                       /*with_cluster_port=*/false);
  EXPECT_EQ(wal_bytes(), at_kill)
      << "restart re-logged rules whose rate and capacity did not change";
  EXPECT_EQ(admitted(second.udp, "alice", 15), 0)
      << "restart handed back credit spent before the crash";
  terminate(second);
  std::remove(wal_path_.c_str());
}

}  // namespace
}  // namespace janus::cluster_test
