// End-to-end chaos: the real gateway -> router -> QoS server -> database
// pipeline under seeded fault schedules, asserting the paper's robustness
// invariants hold for real — not just in the simulator's loss model.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>
#include <unistd.h>

#include "../server/server_model.hpp"
#include "chaos_stack.hpp"
#include "net/http.hpp"

namespace janus::chaos {
namespace {

using testing::FaultInjector;
using testing::FaultPoint;
using testing::ScopedFault;

/// The paper's robustness invariants must hold regardless of topology —
/// the cluster's epoch-stamped v3 path must not change a single verdict —
/// AND regardless of the gateway's routing policy (RR, least-connections,
/// Prequal), so the core ones run across the full
/// {server model} x {topology} x {routing policy} grid (the server has one
/// execution model, see server_model.hpp).
class ChaosModeTest
    : public ChaosStackTest,
      public ::testing::WithParamInterface<
          std::tuple<testing::ServerModel, Topology, lb::RoutingPolicy>> {
 protected:
  void SetUp() override {
    topology_ = std::get<1>(GetParam());
    gateway_policy_ = std::get<2>(GetParam());
    ChaosStackTest::SetUp();
  }
};

TEST_P(ChaosModeTest, DefaultReplyAfterExactlyFiveRetries) {
  provision("alice", 10);
  ScopedFault drop(FaultPoint::kRouterUdpDropAttempt);

  // Straight to the router so the X-Janus-Status header is first-hand.
  net::HttpClient client(router_->addr(), millis(5000));
  auto resp = client.get("/qos?key=alice");
  ASSERT_TRUE(resp.ok()) << resp.error().message;

  // §III-B: no reply after 5 retries => default reply; policy here is deny.
  EXPECT_EQ(resp.value().body, "FALSE");
  EXPECT_EQ(resp.value().header("X-Janus-Status"), "default-reply");
  EXPECT_EQ(FaultInjector::instance().fires(FaultPoint::kRouterUdpDropAttempt),
            5u);
  EXPECT_EQ(router_->metrics().counter("router.default_replies").value(), 1);
  // 5 attempts = 1 try + 4 retries in the router's accounting.
  EXPECT_EQ(router_->metrics().counter("router.udp_retries").value(), 4);
  // Nothing reached the server, and no credit was consumed: once the fault
  // clears, the full quota is still there.
  EXPECT_EQ(server_->metrics().counter("server.received").value(), 0);
}

TEST_P(ChaosModeTest, QuotaRecoversFullyAfterTotalLossClears) {
  provision("bob", 5);
  {
    ScopedFault drop(FaultPoint::kRouterUdpDropAttempt);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(ask(gateway_->addr(), "bob"), "FALSE");  // default deny
    }
  }
  // Fault cleared: the untouched bucket admits exactly its capacity.
  int allowed = 0;
  for (int i = 0; i < 8; ++i) {
    if (ask(gateway_->addr(), "bob") == "TRUE") ++allowed;
  }
  EXPECT_EQ(allowed, 5);
}

TEST_P(ChaosModeTest, QuotaNeverOverAdmittedUnderLoss) {
  // With refill 0, no interleaving of drops, retries, and duplicate charges
  // may ever mint credit: client-observed TRUEs are bounded by capacity.
  // (Lost *responses* can waste credit — at-least-once semantics — but the
  // bound must hold in every schedule.)
  provision("carol", 10);
  FaultInjector::instance().seed(0xC4A05);
  FaultInjector::ArmSpec spec;
  spec.probability = 0.3;
  ScopedFault drop(FaultPoint::kNetUdpDropRx, spec);

  int allowed = 0;
  for (int i = 0; i < 40; ++i) {
    if (ask(gateway_->addr(), "carol") == "TRUE") ++allowed;
  }
  EXPECT_LE(allowed, 10);
  EXPECT_GT(FaultInjector::instance().fires(FaultPoint::kNetUdpDropRx), 0u);

  // After the fault clears the bucket is still never refilled.
  FaultInjector::instance().disarm_all();
  EXPECT_EQ(ask(gateway_->addr(), "carol"), "FALSE");
}

TEST_F(ChaosStackTest, MetricsStayConsistentUnderLoss) {
  provision("dave", 1000);
  FaultInjector::instance().seed(0x3E7215);
  FaultInjector::ArmSpec spec;
  spec.probability = 0.25;
  ScopedFault drop(FaultPoint::kNetUdpDropRx, spec);

  constexpr int kRequests = 30;
  for (int i = 0; i < kRequests; ++i) (void)ask(gateway_->addr(), "dave");

  // Every HTTP request got exactly one verdict: forwarded or defaulted.
  const auto requests = router_->metrics().counter("router.requests").value();
  const auto forwarded = router_->metrics().counter("router.forwarded").value();
  const auto defaults =
      router_->metrics().counter("router.default_replies").value();
  EXPECT_EQ(requests, kRequests);
  EXPECT_EQ(forwarded + defaults, requests);
  EXPECT_EQ(router_->metrics().counter("router.bad_requests").value(), 0);

  // The server never answers more than it received, and the router never
  // hears more answers than the server sent.
  const auto received = server_->metrics().counter("server.received").value();
  const auto answered = server_->metrics().counter("server.answered").value();
  EXPECT_LE(answered, received);
  EXPECT_GE(received, forwarded);  // each forwarded verdict was delivered

  // Retries happened (loss was real) and are visible.
  EXPECT_GT(router_->metrics().counter("router.udp_retries").value(), 0);

  // The gateway proxied every request exactly once.
  EXPECT_EQ(gateway_->metrics().counter("gateway.requests").value(),
            kRequests);
  EXPECT_EQ(gateway_->metrics().counter("gateway.backend_errors").value(), 0);
}

TEST_F(ChaosStackTest, TracingSurvivesLoss) {
  provision("eve", 1000);
  FaultInjector::instance().seed(0x72ACE);
  FaultInjector::ArmSpec spec;
  spec.probability = 0.4;
  ScopedFault drop(FaultPoint::kNetUdpDropRx, spec);

  net::HttpClient client(router_->addr(), millis(5000));
  for (int i = 0; i < 10; ++i) {
    const std::string trace = "chaos-trace-" + std::to_string(i);
    net::HttpRequest req;
    req.target = "/qos?key=eve";
    req.headers.push_back({"X-Janus-Trace", trace});
    auto resp = client.request(req);
    ASSERT_TRUE(resp.ok()) << resp.error().message;
    // Whatever the UDP hop lost, the trace id always rides the HTTP reply —
    // even on a default reply (PR 1's contract).
    EXPECT_EQ(resp.value().header("X-Janus-Trace"), trace);
    auto status = resp.value().header("X-Janus-Status");
    ASSERT_TRUE(status.has_value());
    EXPECT_TRUE(*status == "ok" || *status == "default-reply") << *status;
  }
}

TEST_P(ChaosModeTest, SlowServerInflatesServiceTimeNotCorrectness) {
  provision("frank", 100);
  FaultInjector::ArmSpec spec;
  spec.param = 1000;  // 1 ms stall per request, well inside the 10 ms window
  spec.max_fires = 5;
  ScopedFault slow(FaultPoint::kServerSlowService, spec);

  int allowed = 0;
  for (int i = 0; i < 8; ++i) {
    if (ask(gateway_->addr(), "frank") == "TRUE") ++allowed;
  }
  EXPECT_EQ(allowed, 8);  // verdicts unaffected
  EXPECT_EQ(FaultInjector::instance().fires(FaultPoint::kServerSlowService),
            5u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ChaosModeTest,
    ::testing::Combine(
        testing::AllServerModels(),
        ::testing::Values(Topology::kSingleProcess, Topology::kCluster),
        ::testing::Values(lb::RoutingPolicy::kRoundRobin,
                          lb::RoutingPolicy::kLeastConnections,
                          lb::RoutingPolicy::kPrequal)),
    [](const ::testing::TestParamInfo<std::tuple<
           testing::ServerModel, Topology, lb::RoutingPolicy>>& tpi) {
      std::string name = testing::server_model_name(std::get<0>(tpi.param));
      name += std::get<1>(tpi.param) == Topology::kCluster ? "Cluster"
                                                           : "SingleProcess";
      switch (std::get<2>(tpi.param)) {
        case lb::RoutingPolicy::kRoundRobin: name += "RoundRobin"; break;
        case lb::RoutingPolicy::kLeastConnections:
          name += "LeastConnections";
          break;
        case lb::RoutingPolicy::kPrequal: name += "Prequal"; break;
      }
      return name;
    });

// Crash-recovery invariant across server + database: after a torn
// checkpoint append ("crash mid-write"), WAL replay reconstructs exactly
// the last durable pre-crash state.
TEST(ChaosWalRecoveryTest, ReplayRecoversPreCrashState) {
  const std::string path = ::testing::TempDir() + "janus_chaos_wal_" +
                           std::to_string(::getpid()) + ".log";
  std::remove(path.c_str());

  {
    db::Database db;
    ASSERT_TRUE(db.enable_wal(path).ok());
    db::RuleStore store(db);
    ASSERT_TRUE(store.put({.key = "tenant", .refill_per_sec = 0,
                           .capacity = 10, .credit = 10}).ok());

    server::QosServerConfig scfg;
    scfg.worker_threads = 2;
    scfg.sync_interval = Duration{0};
    scfg.checkpoint_interval = Duration{0};
    auto server = server::QosServerNode::start({"127.0.0.1", 0}, store, scfg);
    ASSERT_TRUE(server.ok()) << server.error().message;

    auto resolver = std::make_shared<router::StaticResolver>();
    resolver->add("qos-0.janus", server.value()->addr());
    router::RouterConfig rcfg;
    rcfg.udp.timeout = millis(50);
    auto router = router::RouterNode::start({"127.0.0.1", 0}, {"qos-0.janus"},
                                            resolver, rcfg);
    ASSERT_TRUE(router.ok()) << router.error().message;

    net::HttpClient client(router.value()->addr(), millis(5000));
    for (int i = 0; i < 4; ++i) {
      auto resp = client.get("/qos?key=tenant");
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp.value().body, "TRUE");
    }
    server.value()->checkpoint_now();  // credit 6 reaches the WAL intact

    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(client.get("/qos?key=tenant").ok());
    }
    {
      // The next checkpoint append tears mid-frame: the crash.
      testing::FaultInjector::ArmSpec spec;
      spec.max_fires = 1;
      testing::ScopedFault torn(testing::FaultPoint::kDbWalPartialWrite, spec);
      server.value()->checkpoint_now();
    }
    router.value()->stop();
    server.value()->stop();
  }

  // Restart: fresh database, same WAL. The torn tail is discarded and the
  // state is exactly the last durable checkpoint — not the lost one.
  db::Database recovered;
  db::RuleStore store2(recovered);
  auto n = recovered.recover(path);
  ASSERT_TRUE(n.ok()) << n.error().message;
  auto row = store2.get("tenant");
  ASSERT_TRUE(row.has_value());
  EXPECT_DOUBLE_EQ(row->credit, 6.0);
  EXPECT_DOUBLE_EQ(row->capacity, 10.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace janus::chaos
