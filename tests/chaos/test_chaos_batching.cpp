// Chaos coverage for PR 4's batched UDP I/O: every fault-semantics invariant
// the per-datagram pipeline guaranteed must hold verbatim when datagrams move
// in recvmmsg/sendmmsg bursts — drops are still consulted once per datagram,
// retry accounting still counts attempts not syscalls, and quota is still
// never over-admitted under loss. The whole suite runs once per data-path
// provider (fallback loops, recvmmsg/sendmmsg), proving both providers are
// observably identical.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "../server/server_model.hpp"
#include "chaos_stack.hpp"
#include "net/http.hpp"
#include "router/udp_qos_client.hpp"
#include "wire/message.hpp"

namespace janus::chaos {
namespace {

using testing::FaultInjector;
using testing::FaultPoint;
using testing::ScopedFault;

/// Value-parameterized over (data-path provider, server execution model):
/// the server's socket runs the fallback loops or recvmmsg/sendmmsg. Both
/// must be observably identical — the provider changes syscall counts, never
/// fault semantics. The server has one execution model (server_model.hpp).
class BatchedChaosTest
    : public ChaosStackTest,
      public ::testing::WithParamInterface<
          std::tuple<net::UdpSocket::DataPath, testing::ServerModel>> {
 protected:
  void SetUp() override {
    data_path_ = std::get<0>(GetParam());
    ChaosStackTest::SetUp();
  }
};

TEST_P(BatchedChaosTest, DefaultReplyRetryAccountingUnchanged) {
  // The §III-B contract is per *attempt*, not per syscall: batching must not
  // change how many times the retry fault point fires or how retries count.
  provision("alice", 10);
  ScopedFault drop(FaultPoint::kRouterUdpDropAttempt);

  net::HttpClient client(router_->addr(), millis(5000));
  auto resp = client.get("/qos?key=alice");
  ASSERT_TRUE(resp.ok()) << resp.error().message;

  EXPECT_EQ(resp.value().body, "FALSE");
  EXPECT_EQ(resp.value().header("X-Janus-Status"), "default-reply");
  EXPECT_EQ(FaultInjector::instance().fires(FaultPoint::kRouterUdpDropAttempt),
            5u);
  EXPECT_EQ(router_->metrics().counter("router.udp_retries").value(), 4);
  EXPECT_EQ(server_->metrics().counter("server.received").value(), 0);
}

TEST_P(BatchedChaosTest, QuotaNeverOverAdmittedUnderLossWithBatching) {
  // kNetUdpDropRx is consulted once per datagram *inside* recv_many, so a
  // drained batch of N still makes N independent drop decisions. No
  // interleaving of batched drops and retries may mint credit.
  provision("carol", 10);
  FaultInjector::instance().seed(0xBA7C4);
  FaultInjector::ArmSpec spec;
  spec.probability = 0.3;
  ScopedFault drop(FaultPoint::kNetUdpDropRx, spec);

  int allowed = 0;
  for (int i = 0; i < 40; ++i) {
    if (ask(gateway_->addr(), "carol") == "TRUE") ++allowed;
  }
  EXPECT_LE(allowed, 10);
  EXPECT_GT(FaultInjector::instance().fires(FaultPoint::kNetUdpDropRx), 0u);

  FaultInjector::instance().disarm_all();
  EXPECT_EQ(ask(gateway_->addr(), "carol"), "FALSE");
}

TEST_P(BatchedChaosTest, TxDropConsultedPerDatagramInBurst) {
  // A sendmmsg burst of N datagrams makes N independent drop-tx decisions —
  // not one per syscall. With the point armed at probability 1, a call_many
  // batch of 4 across 5 attempt rounds consults it exactly 4 x 5 times
  // (nothing ever reaches the server, so no reply traffic muddies the count).
  provision("dave", 100);
  ScopedFault drop(FaultPoint::kNetUdpDropTx);

  router::UdpClientConfig cfg;
  cfg.timeout = millis(5);
  cfg.max_retries = 5;
  router::UdpQosClient client(cfg);

  std::vector<wire::QosRequest> reqs(4);
  for (auto& r : reqs) {
    r.type = wire::RequestType::kCheck;
    r.cost = 1;
    r.key = "dave";
  }
  auto got = client.call_many(server_->addr(), reqs);
  ASSERT_TRUE(got.ok()) << got.error().message;
  for (const auto& resp : got.value()) {
    EXPECT_EQ(resp.status, wire::ResponseStatus::kDefaultReply);
  }
  EXPECT_EQ(FaultInjector::instance().fires(FaultPoint::kNetUdpDropTx),
            4u * 5u);
  EXPECT_EQ(server_->metrics().counter("server.received").value(), 0);
}

TEST_P(BatchedChaosTest, CallManyMatchesPerCallSemantics) {
  // The pipelined client: one burst, positional results, per-request
  // verdicts identical to N separate call()s.
  provision("erin", 3);

  router::UdpClientConfig cfg;
  cfg.timeout = millis(50);
  cfg.max_retries = 5;
  router::UdpQosClient client(cfg);

  std::vector<wire::QosRequest> reqs(6);
  for (auto& r : reqs) {
    r.type = wire::RequestType::kCheck;
    r.cost = 1;
    r.key = "erin";
  }
  auto got = client.call_many(server_->addr(), reqs);
  ASSERT_TRUE(got.ok()) << got.error().message;
  ASSERT_EQ(got.value().size(), reqs.size());

  int allowed = 0;
  for (const auto& resp : got.value()) {
    EXPECT_EQ(resp.status, wire::ResponseStatus::kOk);
    if (resp.allowed) ++allowed;
  }
  EXPECT_EQ(allowed, 3);  // capacity bounds the burst exactly
  EXPECT_EQ(client.last_attempts(), 1);

  // The burst arrived together: the listener's recv_many saw at least one
  // multi-datagram wakeup (mean(server.recv_batch) > 1 needs luck with
  // scheduling, but max must exceed 1 when 6 datagrams land in one send).
  auto recv_hist =
      server_->metrics().histogram("server.recv_batch").snapshot();
  EXPECT_GT(recv_hist.count(), 0u);
}

TEST_P(BatchedChaosTest, CallManyDefaultRepliesAfterAttemptBudget) {
  // Every request in the batch burns the shared attempt budget, fires the
  // per-attempt drop hook once per round, and falls back to a default reply.
  provision("frank", 10);
  ScopedFault drop(FaultPoint::kRouterUdpDropAttempt);

  router::UdpClientConfig cfg;
  cfg.timeout = millis(5);
  cfg.max_retries = 5;
  cfg.default_allow = false;
  router::UdpQosClient client(cfg);

  std::vector<wire::QosRequest> reqs(3);
  for (auto& r : reqs) {
    r.type = wire::RequestType::kCheck;
    r.cost = 1;
    r.key = "frank";
  }
  auto got = client.call_many(server_->addr(), reqs);
  ASSERT_TRUE(got.ok()) << got.error().message;
  ASSERT_EQ(got.value().size(), 3u);
  for (const auto& resp : got.value()) {
    EXPECT_EQ(resp.status, wire::ResponseStatus::kDefaultReply);
    EXPECT_FALSE(resp.allowed);
    EXPECT_EQ(resp.remaining_millicredits, -1);
  }
  // 3 pending requests x 5 rounds = 15 per-request attempt consultations —
  // exactly what 3 separate call()s would have burned.
  EXPECT_EQ(FaultInjector::instance().fires(FaultPoint::kRouterUdpDropAttempt),
            15u);
  EXPECT_EQ(client.last_attempts(), 5);
  EXPECT_EQ(server_->metrics().counter("server.received").value(), 0);
}

TEST_P(BatchedChaosTest, CallManyQuotaBoundHoldsUnderPartialLoss) {
  // Batched retries under probabilistic rx loss: at-least-once delivery may
  // waste credit but must never mint it.
  provision("grace", 5);
  FaultInjector::instance().seed(0x5EED);
  FaultInjector::ArmSpec spec;
  spec.probability = 0.3;
  ScopedFault drop(FaultPoint::kNetUdpDropRx, spec);

  router::UdpClientConfig cfg;
  cfg.timeout = millis(20);
  cfg.max_retries = 5;
  router::UdpQosClient client(cfg);

  int allowed = 0;
  for (int round = 0; round < 4; ++round) {
    std::vector<wire::QosRequest> reqs(5);
    for (auto& r : reqs) {
      r.type = wire::RequestType::kCheck;
      r.cost = 1;
      r.key = "grace";
    }
    auto got = client.call_many(server_->addr(), reqs);
    ASSERT_TRUE(got.ok()) << got.error().message;
    for (const auto& resp : got.value()) {
      if (resp.status == wire::ResponseStatus::kOk && resp.allowed) ++allowed;
    }
  }
  EXPECT_LE(allowed, 5);
}

INSTANTIATE_TEST_SUITE_P(
    ProviderAndThreadingModes, BatchedChaosTest,
    ::testing::Combine(
        ::testing::Values(net::UdpSocket::DataPath::kFallback,
                          net::UdpSocket::DataPath::kMmsg),
        testing::AllServerModels()),
    [](const ::testing::TestParamInfo<
        std::tuple<net::UdpSocket::DataPath, testing::ServerModel>>& tpi) {
      std::string name =
          std::get<0>(tpi.param) == net::UdpSocket::DataPath::kFallback
              ? "FallbackLoops"
              : "BatchedSyscalls";
      return name + testing::server_model_name(std::get<1>(tpi.param));
    });

}  // namespace
}  // namespace janus::chaos
